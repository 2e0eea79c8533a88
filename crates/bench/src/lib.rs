//! # ace-bench — the experiment harness
//!
//! One module per group of experiments from DESIGN.md's index; the
//! `experiments` binary runs them all and prints the tables recorded in
//! EXPERIMENTS.md.  Criterion micro-benchmarks for the stable kernels live
//! in `benches/`.  Numbers from the whole building under load come from
//! `acebench` (`benchmark/`), not from here.

pub mod exp_directory;
pub mod exp_framework;
pub mod exp_lang;
pub mod exp_media;
pub mod exp_overload;
pub mod exp_resources;
pub mod exp_runtime;
pub mod exp_scenarios;
pub mod exp_security;
pub mod exp_store;
pub mod exp_workspace;
pub mod util;

/// Every experiment, in id order: `(id, runner)`.
pub fn all_experiments() -> Vec<(&'static str, fn())> {
    vec![
        ("e01", exp_framework::e01 as fn()),
        ("e02", exp_lang::e02),
        ("e03", exp_lang::e03),
        ("e04", exp_framework::e04),
        ("e05", exp_directory::e05),
        ("e06", exp_framework::e06),
        ("e07", exp_framework::e07),
        ("e08", exp_security::e08),
        ("e09", exp_resources::e09),
        ("e10", exp_resources::e10),
        ("e11", exp_media::e11),
        ("e12", exp_media::e12),
        ("e13", exp_media::e13),
        ("e14", exp_workspace::e14),
        ("e15", exp_store::e15),
        ("e16", exp_scenarios::e16),
        ("e17", exp_scenarios::e17),
        ("e18", exp_framework::e18),
        ("e19", exp_store::e19),
        ("e20", exp_directory::e20),
        ("e21", exp_overload::e21),
        ("e22", exp_runtime::e22),
        ("e23", exp_store::e23),
    ]
}

#[cfg(test)]
mod tests {
    #[test]
    fn experiment_ids_are_unique_and_contiguous() {
        let ids: Vec<&str> = super::all_experiments().iter().map(|(id, _)| *id).collect();
        let expected: Vec<String> = (1..=23).map(|n| format!("e{n:02}")).collect();
        assert_eq!(ids, expected);
    }
}
