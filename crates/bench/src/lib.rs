//! Experiment harness: one module per table/figure of the paper's
//! evaluation section (§IV-D and §VI), run by the `experiments` binary,
//! plus the crash-safety sweep behind `--features failpoints`. The
//! performance ledger is the separate `perf` binary (`src/bin/perf/`).
//!
//! Every experiment takes a [`Scale`] so the same code runs both as a
//! quick smoke (the unit tests, CI) and at the paper's full sizes
//! (`TALE_SCALE=1.0 experiments all`). Absolute numbers differ from the
//! paper (synthetic data, our storage engine, different hardware); the
//! harness reports the *shape* — who wins, rough factors, growth trends —
//! which is what EXPERIMENTS.md records against the paper's claims.

pub mod experiments;

pub use experiments::ablation::{run_ablation, AblationReport};
pub use experiments::alg1::{run_alg1, Alg1Row};
pub use experiments::fig5::{run_fig5, Fig5Report};
pub use experiments::fig789::{run_fig789, Fig789Row};
pub use experiments::kegg::{run_kegg, KeggExpReport};
pub use experiments::pimp::{run_pimp, PimpRow};
pub use experiments::saga::{run_saga, SagaRow};
pub use experiments::table1::{run_table1, Table1Row};
pub use experiments::table2::{run_table2, Table2Row};
pub use experiments::table3::{run_table3_fig6, Fig6Cell, Table3Fig6Report, Table3Row};

/// Workload scaling knob shared by all experiments.
#[derive(Debug, Clone, Copy)]
pub struct Scale(pub f64);

impl Scale {
    /// Reads `TALE_SCALE` from the environment (default `default`).
    pub fn from_env(default: f64) -> Scale {
        let v = std::env::var("TALE_SCALE")
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .unwrap_or(default);
        Scale(v.clamp(0.001, 1.0))
    }
}

/// Wall-clock helper returning `(result, seconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}
