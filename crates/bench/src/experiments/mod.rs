//! Experiment modules, one per paper artifact. See the per-module docs
//! for the exact paper claim each one regenerates.

pub mod ablation;
pub mod alg1;
#[cfg(feature = "failpoints")]
pub mod crash;
pub mod fig5;
pub mod fig789;
pub mod kegg;
pub mod pimp;
pub mod saga;
pub mod table1;
pub mod table2;
pub mod table3;
