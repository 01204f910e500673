//! Rendering a session into the fig 4/5 visualization panel.

use visdb_arrange::place_like;
use visdb_color::Rgb;
use visdb_render::{compose_grid, render_item_window, render_spectrum, Framebuffer, WindowSpec};
use visdb_types::Result;

use crate::session::Session;

/// Rendering options.
#[derive(Debug, Clone)]
pub struct RenderOptions {
    /// Windows per row in the composed panel (fig 4 uses 2).
    pub columns: usize,
    /// Margin between windows in pixels.
    pub margin: usize,
    /// Also append slider spectrum strips under the windows: the
    /// combined distances' and then each window's normalized distances
    /// over the full relation.
    pub with_spectra: bool,
}

impl Default for RenderOptions {
    fn default() -> Self {
        RenderOptions {
            columns: 2,
            margin: 4,
            with_spectra: false,
        }
    }
}

/// Render the whole visualization part: the overall-result window first
/// ("the upper left part of the visualization window", §3), then one
/// window per selection predicate with *position-coherent* item
/// placement.
pub fn render_session(session: &mut Session, opts: &RenderOptions) -> Result<Framebuffer> {
    let highlighted: Vec<u32> = session
        .selected_item()
        .map(|i| i as u32)
        .into_iter()
        .collect();
    let ppi = session.pixels_per_item();
    session.result()?; // ensure the cache is fresh
    let session = &*session;
    let map = session.colormap();
    let res = session.cached_result().expect("cached by result()");
    let color = |d: Option<f64>| d.and_then(|d| map.color_for_distance(d).ok());

    let mut frames = Vec::with_capacity(1 + res.pipeline.windows.len());

    // overall result window: color by combined distance
    let combined = &res.pipeline.combined;
    let overall_colors = |item: u32| -> Option<Rgb> { color(combined.get(item as usize)) };
    frames.push(render_item_window(
        &WindowSpec {
            grid: &res.grid,
            colors: &overall_colors,
            highlighted: &highlighted,
        },
        ppi,
    ));

    // per-predicate windows: same placement, window-local colors
    for win in &res.pipeline.windows {
        let grid = place_like(&res.grid);
        let colors = |item: u32| -> Option<Rgb> { color(win.normalized_at(item as usize)) };
        frames.push(render_item_window(
            &WindowSpec {
                grid: &grid,
                colors: &colors,
                highlighted: &highlighted,
            },
            ppi,
        ));
    }

    if opts.with_spectra {
        let width = res.grid.width() * ppi.side();
        frames.push(render_spectrum(combined.iter(), map, width, 8));
        for win in &res.pipeline.windows {
            // normalized distances are derived on read
            let derived = (0..win.len()).map(|i| win.normalized_at(i));
            frames.push(render_spectrum(derived, map, width, 8));
        }
    }

    Ok(compose_grid(&frames, opts.columns, opts.margin))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use visdb_query::ast::CompareOp;
    use visdb_query::builder::QueryBuilder;
    use visdb_query::connection::ConnectionRegistry;
    use visdb_relevance::pipeline::DisplayPolicy;
    use visdb_storage::{Database, TableBuilder};
    use visdb_types::{Column, DataType, Value};

    fn session() -> Session {
        let mut b = TableBuilder::new("T", vec![Column::new("x", DataType::Float)]);
        for i in 0..400 {
            b = b.row(vec![Value::Float(i as f64)]).unwrap();
        }
        let mut db = Database::new("d");
        db.add_table(b.build());
        let mut s = Session::new(Arc::new(db), ConnectionRegistry::new());
        s.set_window_size(16, 16).unwrap();
        s.set_display_policy(DisplayPolicy::Percentage(50.0))
            .unwrap();
        s.set_query(
            QueryBuilder::from_tables(["T"])
                .cmp("x", CompareOp::Ge, 390.0)
                .cmp("x", CompareOp::Lt, 398.0)
                .build(),
        )
        .unwrap();
        s
    }

    #[test]
    fn renders_overall_plus_predicate_windows() {
        let mut s = session();
        let fb = render_session(&mut s, &RenderOptions::default()).unwrap();
        // 3 windows in 2 columns: 2 cells wide, 2 rows
        assert!(fb.width() >= 2 * 16);
        assert!(fb.height() >= 2 * 16);
        // there must be yellow-ish exact answers somewhere
        let yellowish = fb
            .pixels()
            .iter()
            .filter(|p| p.r > 200 && p.g > 200 && p.b < 90)
            .count();
        assert!(yellowish > 0, "no exact-answer pixels rendered");
    }

    #[test]
    fn highlight_is_rendered_white() {
        let mut s = session();
        s.select_tuple(395).unwrap();
        let fb = render_session(&mut s, &RenderOptions::default()).unwrap();
        // the item appears highlighted in all 3 windows
        assert_eq!(fb.count_color(visdb_color::HIGHLIGHT), 3);
    }

    #[test]
    fn spectra_extend_the_panel() {
        let mut s = session();
        let plain = render_session(&mut s, &RenderOptions::default()).unwrap();
        let with = render_session(
            &mut s,
            &RenderOptions {
                with_spectra: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(with.height() > plain.height());
    }

    #[test]
    fn pixels_per_item_scales_output() {
        let mut s = session();
        let fb1 = render_session(&mut s, &RenderOptions::default()).unwrap();
        s.set_pixels_per_item(visdb_arrange::PixelsPerItem::Four)
            .unwrap();
        let fb2 = render_session(&mut s, &RenderOptions::default()).unwrap();
        assert!(fb2.width() > fb1.width());
    }
}
