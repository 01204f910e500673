//! # visdb-core
//!
//! The VisDB engine: everything the paper's interactive system does,
//! reassembled as a headless API.
//!
//! A [`session::Session`] owns a database, the declared connections, a
//! query and the display parameters; it materialises the base relation
//! (including bounded approximate-join cross products, [`joins`]), runs
//! the relevance pipeline, arranges items into windows, and exposes all
//! the §4.3 interactions — sliders, weights, color-range projection,
//! tuple selection, drill-down into query parts — as methods that
//! recalculate automatically (or on demand in `auto_recalculate(false)`
//! mode).
//!
//! Rendering ([`render`]) turns the session state into framebuffers that
//! reproduce the fig 4/5 visualization panel; [`sliders`] builds the
//! right-hand modification panel with the exact fields the figures show
//! (`# objects`, `# displayed`, `% displayed`, `first/last of color`,
//! `query range`, `weight`, ...).

pub mod joins;
pub mod render;
pub mod session;
pub mod sliders;

pub use joins::{materialize_base, JoinOptions};
pub use render::{render_session, Paint, Picture, RenderOptions, ASCII_COLS};
pub use session::{DrilldownView, Session, SessionResult, SliderDrag};
pub use sliders::{OverallPanel, Panel, SliderModel};
