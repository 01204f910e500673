//! Rendering a session into the fig 4/5 visualization panel.
//!
//! A table root without exceptions ([`Combined::Table`]: two-valued
//! windows, and fitted ones with every shown row on their plateau) is
//! painted by pattern: every displayed row's color, in the overall
//! window and in each predicate window, is a function of its pattern —
//! the exact bits of its windows, at most `2^#sp` of them — so each
//! window colors its patterns once and paints its cells from that
//! palette. The panel is
//! then a function of the placed rows, their patterns, the colors of
//! those patterns and the render parameters ([`PaintInputs`]); the
//! session holds the last one, and a render from the same inputs over
//! the same placement returns it, ASCII preview included. Other roots
//! color every item through its combined and normalized distances.

use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use visdb_arrange::{place_like, ItemGrid, PixelsPerItem, SpiralIter};
use visdb_color::{Rgb, BACKGROUND};
use visdb_relevance::pipeline::Combined;
use visdb_render::ascii::to_ascii;
use visdb_render::{
    compose_grid, render_item_window, render_palette_window, render_spectrum, Framebuffer,
    WindowSpec,
};
use visdb_types::Result;

use crate::session::{Session, SessionResult};

/// Columns of the ASCII preview a [`Picture`] encodes.
pub const ASCII_COLS: usize = 80;

/// A rendered panel: its pixels, plus their ASCII preview encoded on
/// first use. Shared — a render that paints nothing new hands back the
/// held picture, preview and all. Reads as its [`Framebuffer`].
#[derive(Debug)]
pub struct Picture {
    frame: Framebuffer,
    ascii: OnceLock<Arc<Vec<u8>>>,
}

impl Picture {
    fn new(frame: Framebuffer) -> Arc<Picture> {
        Arc::new(Picture {
            frame,
            ascii: OnceLock::new(),
        })
    }

    /// The panel's pixels.
    pub fn frame(&self) -> &Framebuffer {
        &self.frame
    }

    /// The panel as ASCII art at most [`ASCII_COLS`] characters wide
    /// ([`to_ascii`]), encoded once per picture.
    pub fn ascii(&self) -> Arc<Vec<u8>> {
        let encode = || Arc::new(to_ascii(&self.frame, ASCII_COLS).into_bytes());
        Arc::clone(self.ascii.get_or_init(encode))
    }
}

impl Deref for Picture {
    type Target = Framebuffer;

    fn deref(&self) -> &Framebuffer {
        &self.frame
    }
}

/// Everything a table root's panel is painted from besides its placement:
/// two renders with equal inputs over the same placed rows paint the same
/// pixels.
#[derive(Debug, PartialEq)]
pub(crate) struct PaintInputs {
    /// The placed rows' patterns, in rank order.
    patterns: Vec<u8>,
    /// The overall window's color of each pattern that is placed (the
    /// background for the rest).
    overall: Vec<Rgb>,
    /// A predicate window's color of an exact and of a missed row.
    exact: Rgb,
    missed: Rgb,
    windows: usize,
    highlighted: Option<usize>,
    ppi: PixelsPerItem,
    columns: usize,
    margin: usize,
}

impl PaintInputs {
    /// The inputs of `session`'s result when its root is a table without
    /// exceptions and the panel has no spectra (those read every row). An
    /// exception's colors — a fitted window's row below its plateau — are
    /// not a function of its pattern.
    fn of(session: &Session, opts: &RenderOptions) -> Option<PaintInputs> {
        let res = session.cached_result()?;
        let Combined::Table(table) = &res.pipeline.combined else {
            return None;
        };
        if opts.with_spectra || !table.exceptions().is_empty() {
            return None;
        }
        let map = session.colormap();
        let color = |d: f64| map.color_for_distance(d).unwrap_or(BACKGROUND);
        let placed = res.pipeline.displayed.len().min(res.grid.len());
        let patterns = res.pipeline.patterns.get(..placed)?.to_vec();
        // the value of a pattern no row shows moves with the weights, and
        // paints nothing: it is left out of the inputs
        let used = patterns.iter().fold(0u64, |used, &p| used | 1 << p);
        let mut overall = vec![BACKGROUND; table.values().len()];
        for (p, &v) in table.values().iter().enumerate() {
            if used >> p & 1 == 1 {
                overall[p] = color(v);
            }
        }
        Some(PaintInputs {
            patterns,
            overall,
            exact: color(0.0),
            missed: color(255.0),
            windows: res.pipeline.windows.len(),
            highlighted: session.selected_item(),
            ppi: session.pixels_per_item(),
            columns: opts.columns,
            margin: opts.margin,
        })
    }

    /// Paint the panel: the overall window from the pattern colors, then
    /// predicate window `c` by bit `c` of each cell's pattern.
    fn paint(&self, grid: &ItemGrid) -> Vec<Framebuffer> {
        let mut cells = vec![0u8; grid.len()];
        let spiral = SpiralIter::new(grid.width(), grid.height());
        for ((x, y), &p) in spiral.zip(&self.patterns) {
            cells[y * grid.width() + x] = p;
        }
        let highlighted: Vec<u32> = self.highlighted.map(|i| i as u32).into_iter().collect();
        let window =
            |palette: &[Rgb]| render_palette_window(grid, &cells, palette, &highlighted, self.ppi);
        let mut frames = vec![window(&self.overall)];
        for c in 0..self.windows {
            let palette: Vec<Rgb> = (0..self.overall.len())
                .map(|p| [self.missed, self.exact][p >> c & 1])
                .collect();
            frames.push(window(&palette));
        }
        frames
    }
}

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
/// placement. A table root's panel painted from the held inputs over the
/// held placement is the held picture itself. [`Session::take_paint`]
/// says which of the three ways the panel came about.
pub fn render_session(session: &mut Session, opts: &RenderOptions) -> Result<Arc<Picture>> {
    session.result()?; // ensure the cache is fresh
    let Some(inputs) = PaintInputs::of(session, opts) else {
        session.paint = Some(Paint::Rows);
        return Ok(Picture::new(paint_rows(session, opts)));
    };
    let held = session.held.picture.as_ref();
    if let Some((_, picture)) = held.filter(|(held, _)| *held == inputs) {
        let picture = Arc::clone(picture);
        session.paint = Some(Paint::Held);
        return Ok(picture);
    }
    let res = session.cached_result().expect("cached by result()");
    let frames = inputs.paint(&res.grid);
    let picture = Picture::new(compose_grid(&frames, opts.columns, opts.margin));
    session.held.picture = Some((inputs, Arc::clone(&picture)));
    session.paint = Some(Paint::Patterns);
    Ok(picture)
}

/// How [`render_session`] came by a panel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Paint {
    /// The held panel, handed back: the same placement painted from the
    /// same inputs (a re-weight under `num_exact >= k`, a re-render).
    Held,
    /// Painted by pattern, from a table root's per-window palettes.
    Patterns,
    /// Painted row by row, through combined and normalized distances.
    Rows,
}

/// The panel of a root read row by row: every item colored through its
/// combined and normalized distances.
fn paint_rows(session: &Session, opts: &RenderOptions) -> Framebuffer {
    let highlighted: Vec<u32> = session
        .selected_item()
        .map(|i| i as u32)
        .into_iter()
        .collect();
    let ppi = session.pixels_per_item();
    let map = session.colormap();
    let res: &SessionResult = session.cached_result().expect("cached by result()");
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

    compose_grid(&frames, opts.columns, opts.margin)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use visdb_query::ast::{CompareOp, PredicateTarget};
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

    /// `x >= 100 AND x < lt AND x >= ge` over 400 rows, each window's
    /// exact answers covering its fit: the root is a table.
    fn table_session(pct: f64, lt: f64, ge: f64) -> Session {
        let mut s = session();
        s.set_display_policy(DisplayPolicy::Percentage(pct))
            .unwrap();
        s.set_query(
            QueryBuilder::from_tables(["T"])
                .cmp("x", CompareOp::Ge, 100.0)
                .cmp("x", CompareOp::Lt, lt)
                .cmp("x", CompareOp::Ge, ge)
                .build(),
        )
        .unwrap();
        s
    }

    /// The first 40 rows exact in every window show: one pattern.
    fn covered_session() -> Session {
        table_session(10.0, 390.0, 120.0)
    }

    #[test]
    fn table_roots_paint_by_pattern_what_rows_paint() {
        let opts = RenderOptions::default();
        // 150 rows are exact in all three windows against 160 shown, so
        // the walk goes on through the rows exact in two
        let shapes: [(fn() -> Session, usize); 2] = [
            (covered_session, 1),
            (|| table_session(40.0, 300.0, 150.0), 2),
        ];
        for (make, classes) in shapes {
            for ppi in [PixelsPerItem::One, PixelsPerItem::Four] {
                for selected in [None, Some(130), Some(115), Some(5)] {
                    let mut s = make();
                    s.set_pixels_per_item(ppi).unwrap();
                    if let Some(item) = selected {
                        s.select_tuple(item).unwrap();
                    }
                    let picture = render_session(&mut s, &opts).unwrap();
                    assert_eq!(s.take_paint(), Some(Paint::Patterns));
                    let res = s.cached_result().unwrap();
                    assert!(matches!(res.pipeline.combined, Combined::Table(_)));
                    let mut patterns = res.pipeline.patterns.clone();
                    patterns.sort_unstable();
                    patterns.dedup();
                    assert_eq!(patterns.len(), classes, "{patterns:?}");
                    let what = format!("{classes} classes, {ppi:?}, {selected:?}");
                    assert_eq!(*picture.frame(), paint_rows(&s, &opts), "{what}");
                }
            }
        }
    }

    #[test]
    fn a_render_from_the_held_inputs_is_the_held_picture() {
        let opts = RenderOptions::default();
        let mut s = covered_session();
        let first = render_session(&mut s, &opts).unwrap();
        assert_eq!(s.take_paint(), Some(Paint::Patterns));
        // a re-weight places the same exact rows with the same patterns
        for (window, weight) in [(1, 0.4), (0, 0.9), (2, 0.5)] {
            s.set_weight(window, weight).unwrap();
            let again = render_session(&mut s, &opts).unwrap();
            assert!(Arc::ptr_eq(&first, &again), "window {window} at {weight}");
            assert_eq!(s.take_paint(), Some(Paint::Held));
        }
        assert_eq!(s.take_paint(), None);
        // a selection is an input: painted again, then held
        let item = s.cached_result().unwrap().pipeline.displayed[7];
        s.select_tuple(item).unwrap();
        let selected = render_session(&mut s, &opts).unwrap();
        assert!(!Arc::ptr_eq(&first, &selected));
        assert_eq!(s.take_paint(), Some(Paint::Patterns));
        assert_eq!(*selected.frame(), paint_rows(&s, &opts));
        assert!(Arc::ptr_eq(
            &selected,
            &render_session(&mut s, &opts).unwrap()
        ));
        // other placed rows are a new arrangement, with no panel held
        s.set_predicate_target(
            2,
            PredicateTarget::Compare {
                op: CompareOp::Ge,
                value: Value::Float(125.0),
            },
        )
        .unwrap();
        let moved = render_session(&mut s, &opts).unwrap();
        assert_eq!(s.take_paint(), Some(Paint::Patterns));
        assert_eq!(*moved.frame(), paint_rows(&s, &opts));
        // spectra and fitted windows read every row
        let spectra = RenderOptions {
            with_spectra: true,
            ..Default::default()
        };
        render_session(&mut s, &spectra).unwrap();
        assert_eq!(s.take_paint(), Some(Paint::Rows));
        let mut fitted = session();
        render_session(&mut fitted, &opts).unwrap();
        assert_eq!(fitted.take_paint(), Some(Paint::Rows));
    }

    #[test]
    fn the_ascii_preview_is_encoded_once() {
        let mut s = covered_session();
        let picture = render_session(&mut s, &RenderOptions::default()).unwrap();
        let ascii = picture.ascii();
        assert_eq!(*ascii, to_ascii(picture.frame(), ASCII_COLS).into_bytes());
        assert!(Arc::ptr_eq(&ascii, &picture.ascii()));
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
