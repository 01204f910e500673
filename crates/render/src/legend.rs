//! Slider color-spectrum strips.
//!
//! "The color spectrum of each slider is just a different arrangement of
//! the colored distances and corresponds to the distribution of distances
//! for the corresponding attribute" (§4.3): a horizontal strip where the
//! x-axis walks the *sorted* distances, so the width of each color band
//! shows how many items carry that distance.

use visdb_color::{Colormap, BACKGROUND};

use crate::framebuffer::Framebuffer;

/// Render the spectrum strip of one predicate: `normalized` are the
/// `[0, 255]` distances (undefined skipped), drawn sorted ascending over
/// a `width × height` strip.
pub fn render_spectrum(
    normalized: impl IntoIterator<Item = Option<f64>>,
    map: &Colormap,
    width: usize,
    height: usize,
) -> Framebuffer {
    let mut fb = Framebuffer::new(width, height, BACKGROUND);
    let mut vals: Vec<f64> = normalized.into_iter().flatten().collect();
    if vals.is_empty() || width == 0 {
        return fb;
    }
    vals.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    for x in 0..width {
        // nearest-rank mapping of the strip position into the sorted data
        let idx = (x * vals.len()) / width;
        let d = vals[idx.min(vals.len() - 1)].clamp(0.0, 255.0);
        let c = map.color_for_distance(d).unwrap_or(BACKGROUND);
        for y in 0..height {
            fb.set(x, y, c);
        }
    }
    fb
}

#[cfg(test)]
mod tests {
    use super::*;
    use visdb_color::ColormapKind;

    #[test]
    fn spectrum_is_sorted_left_to_right() {
        let map = Colormap::new(ColormapKind::Grayscale);
        // unsorted input with half exact answers
        let vals: Vec<Option<f64>> = vec![Some(255.0), Some(0.0), Some(0.0), Some(128.0)];
        let fb = render_spectrum(vals, &map, 8, 2);
        // grayscale: brightness decreases with distance, so luma must be
        // non-increasing left to right
        let mut prev = f64::INFINITY;
        for x in 0..8 {
            let l = fb.get(x, 0).unwrap().luma();
            assert!(l <= prev + 1e-9, "x={x}");
            prev = l;
        }
    }

    #[test]
    fn exact_heavy_data_is_mostly_bright() {
        let map = Colormap::new(ColormapKind::Grayscale);
        let mut vals = vec![Some(0.0); 90];
        vals.extend(vec![Some(255.0); 10]);
        let fb = render_spectrum(vals, &map, 100, 1);
        let white = fb.count_color(visdb_color::Rgb::new(255, 255, 255));
        assert!((85..=95).contains(&white), "white={white}");
    }

    #[test]
    fn empty_and_undefined_inputs() {
        let map = Colormap::default();
        let fb = render_spectrum([], &map, 10, 2);
        assert_eq!(fb.count_color(BACKGROUND), 20);
        let fb = render_spectrum([None, None], &map, 10, 2);
        assert_eq!(fb.count_color(BACKGROUND), 20);
    }
}
