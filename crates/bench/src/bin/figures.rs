//! Regenerate every figure of the paper (fig 1a, 1b, 2a/2b, 3, 4, 5) as
//! PPM images under `out/` plus the printed panels. See DESIGN.md §3 and
//! EXPERIMENTS.md.
//!
//! ```sh
//! cargo run -p visdb-bench --bin figures
//! ```

use std::fs::File;
use std::io::BufWriter;
use std::sync::Arc;

use visdb_arrange::{arrange_grouped2d, arrange_overall, grouped2d::Item2D, PixelsPerItem};
use visdb_color::{Colormap, Rgb, BACKGROUND};
use visdb_core::{render_session, JoinOptions, RenderOptions, Session};
use visdb_data::distributions::{mixture, normal, rng};
use visdb_data::{generate_environmental, EnvConfig};
use visdb_query::parser::parse_query;
use visdb_query::printer::render_query;
use visdb_relevance::pipeline::DisplayPolicy;
use visdb_relevance::reduction::gap_cutoff;
use visdb_render::{compose_grid, render_item_window, write_ppm, Framebuffer, WindowSpec};
use visdb_types::Result;

fn save(fb: &Framebuffer, path: &str) -> Result<()> {
    let file = File::create(path)?;
    write_ppm(fb, BufWriter::new(file))?;
    println!("wrote {path} ({}x{})", fb.width(), fb.height());
    Ok(())
}

/// Fig 1a: the rectangular-spiral arrangement. Items carry a unimodal
/// distance distribution; exact answers form the yellow core.
fn fig1a() -> Result<()> {
    let mut r = rng(11);
    let n = 60 * 60;
    // 8% exact answers, the rest increasingly distant
    let mut distances: Vec<f64> = (0..n)
        .map(|i| {
            if i < n / 12 {
                0.0
            } else {
                (normal(&mut r, 120.0, 60.0)).clamp(1.0, 255.0)
            }
        })
        .collect();
    distances.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let ranked: Vec<usize> = (0..n).collect();
    let grid = arrange_overall(&ranked, 60, 60);
    let map = Colormap::default();
    let colors =
        |item: u32| -> Option<Rgb> { map.color_for_distance(distances[item as usize]).ok() };
    let fb = render_item_window(
        &WindowSpec {
            grid: &grid,
            colors: &colors,
            highlighted: &[],
        },
        PixelsPerItem::Four,
    );
    save(&fb, "out/fig1a.ppm")
}

/// Fig 1b: the 2D arrangement — two attributes on the axes, placement by
/// distance sign, color by combined distance.
fn fig1b() -> Result<()> {
    let mut r = rng(13);
    let n = 2400;
    let mut items: Vec<(Item2D, f64)> = (0..n)
        .map(|i| {
            let dx = normal(&mut r, 0.0, 80.0);
            let dy = normal(&mut r, 0.0, 80.0);
            let (dx, dy) = if i < n / 10 { (0.0, 0.0) } else { (dx, dy) };
            let combined = (dx.abs() + dy.abs()).min(255.0);
            (Item2D { item: i, dx, dy }, combined)
        })
        .collect();
    // sort by relevance (ascending combined distance)
    items.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
    let placed: Vec<Item2D> = items.iter().map(|(it, _)| *it).collect();
    let grid = arrange_grouped2d(&placed, 64, 64);
    let by_item: Vec<f64> = {
        let mut v = vec![0.0; n];
        for (it, c) in &items {
            v[it.item] = *c;
        }
        v
    };
    let map = Colormap::default();
    let colors = |item: u32| -> Option<Rgb> { map.color_for_distance(by_item[item as usize]).ok() };
    let fb = render_item_window(
        &WindowSpec {
            grid: &grid,
            colors: &colors,
            highlighted: &[],
        },
        PixelsPerItem::Four,
    );
    save(&fb, "out/fig1b.ppm")
}

/// Fig 2: the two density shapes motivating the reduction heuristic,
/// with the gap-heuristic cut point printed for each.
fn fig2() -> Result<()> {
    let mut r = rng(17);
    let unimodal: Vec<f64> = (0..4000)
        .map(|_| normal(&mut r, 100.0, 25.0).max(0.0))
        .collect();
    let bimodal: Vec<f64> = (0..4000)
        .map(|_| mixture(&mut r, 0.55, (40.0, 10.0), (200.0, 12.0)).max(0.0))
        .collect();
    for (name, data) in [("fig2a", &unimodal), ("fig2b", &bimodal)] {
        // render the density as a histogram curve
        let (w, h) = (256usize, 96usize);
        let mut hist = vec![0usize; w];
        let max_v = data.iter().cloned().fold(0.0f64, f64::max).max(1.0);
        for &v in data {
            let b = ((v / max_v) * (w - 1) as f64) as usize;
            hist[b] += 1;
        }
        let peak = *hist.iter().max().expect("nonempty") as f64;
        let mut fb = Framebuffer::new(w, h, BACKGROUND);
        for (x, &c) in hist.iter().enumerate() {
            let bar = ((c as f64 / peak) * (h - 1) as f64) as usize;
            for y in 0..bar {
                fb.set(x, h - 1 - y, Rgb::new(240, 220, 80));
            }
        }
        save(&fb, &format!("out/{name}.ppm"))?;
        // the heuristic's cut
        let mut sorted = data.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let cut = gap_cutoff(&sorted, 400, 3600, 25)?;
        println!(
            "{name}: gap-heuristic cut after {} of {} items (distance {:.1}); \
             {}",
            cut + 1,
            sorted.len(),
            sorted[cut],
            if name == "fig2b" {
                "cuts at the inter-group gap -> only the near group is displayed"
            } else {
                "no dominant gap -> cut is data-dependent within [rmin, rmax]"
            }
        );
    }
    Ok(())
}

/// Fig 3: the query-representation tree of the §4.1 example query.
fn fig3(env_registry: &visdb_query::connection::ConnectionRegistry) -> Result<()> {
    let q = parse_query(
        "SELECT Temperature, Solar-Radiation, Humidity, Ozone \
         FROM Weather, Air-Pollution \
         WHERE (Temperature > 15 OR Solar-Radiation > 600 OR Humidity < 60) \
         AND CONNECT with-time-diff(7200) ON Air-Pollution, Weather",
        env_registry,
    )?;
    println!("--- fig 3: Query Representation ---\n{}", render_query(&q));
    Ok(())
}

/// Figs 4 & 5: the visualization & modification window for the example
/// query, and the OR-part drill-down.
fn fig4_and_5() -> Result<()> {
    let env = generate_environmental(&EnvConfig {
        hours: 24 * 30,
        stations: 1,
        ..Default::default()
    });
    fig3(&env.registry)?;

    let mut session = Session::new(Arc::new(env.db), env.registry);
    session.set_window_size(48, 48)?;
    session.set_display_policy(DisplayPolicy::Percentage(40.0))?;
    session.set_join_options(JoinOptions {
        row_cap: 60_000,
        ..Default::default()
    })?;
    session.set_query_text(
        "SELECT Temperature, Solar-Radiation, Humidity, Ozone \
         FROM Weather, Air-Pollution \
         WHERE (Temperature > 15 OR Solar-Radiation > 600 OR Humidity < 60) \
         AND CONNECT with-time-diff(7200) ON Air-Pollution, Weather",
    )?;

    let fb = render_session(
        &mut session,
        &RenderOptions {
            with_spectra: true,
            ..Default::default()
        },
    )?;
    save(&fb, "out/fig4.ppm")?;
    println!("--- fig 4 panel ---\n{}", session.panel()?);

    // fig 5: drill into the OR part; same arrangement as fig 4
    let view = session.drilldown(&[0], false)?;
    let map = session.colormap().clone();
    let mut frames = Vec::new();
    // overall of the OR part
    let combined = &view.pipeline.combined;
    let overall_colors = |item: u32| -> Option<Rgb> {
        combined
            .get(item as usize)
            .and_then(|d| map.color_for_distance(d).ok())
    };
    frames.push(render_item_window(
        &WindowSpec {
            grid: &view.grid,
            colors: &overall_colors,
            highlighted: &[],
        },
        PixelsPerItem::One,
    ));
    for w in &view.pipeline.windows {
        let w = w.clone();
        let m2 = map.clone();
        let colors = move |item: u32| -> Option<Rgb> {
            w.normalized_at(item as usize)
                .and_then(|d| m2.color_for_distance(d).ok())
        };
        frames.push(render_item_window(
            &WindowSpec {
                grid: &view.grid,
                colors: &colors,
                highlighted: &[],
            },
            PixelsPerItem::One,
        ));
    }
    let fb5 = compose_grid(&frames, 2, 4);
    save(&fb5, "out/fig5.ppm")?;
    println!(
        "--- fig 5: OR-part windows: {} ---",
        view.pipeline
            .windows
            .iter()
            .map(|w| w.label.clone())
            .collect::<Vec<_>>()
            .join(" | ")
    );

    // the fig 5 anomaly narrative: items whose Humidity misses its
    // predicate (red in the Humidity window) yet are good overall answers
    let res = session.result()?;
    let hum_idx = res
        .pipeline
        .windows
        .iter()
        .position(|w| w.label.contains("OR"))
        .expect("OR window");
    let _ = hum_idx;
    let hum_window = view
        .pipeline
        .windows
        .iter()
        .position(|w| w.label.contains("Humidity"))
        .expect("humidity window");
    let anomalies = res
        .pipeline
        .displayed
        .iter()
        .filter(|&&i| {
            let far_on_humidity =
                matches!(view.pipeline.windows[hum_window].normalized_at(i), Some(d) if d > 150.0);
            let good_overall = matches!(res.pipeline.combined.get(i), Some(d) if d < 40.0);
            far_on_humidity && good_overall
        })
        .count();
    println!(
        "fig 5 anomaly check: {anomalies} displayed items are red on Humidity yet good overall \
         (the §4.3 'red region' observation)"
    );
    Ok(())
}

fn main() -> Result<()> {
    std::fs::create_dir_all("out")?;
    fig1a()?;
    fig1b()?;
    fig2()?;
    fig4_and_5()?;
    println!("\nall figures regenerated under out/");
    Ok(())
}
