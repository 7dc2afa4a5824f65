//! # hisq-bench — experiment regeneration for every table and figure
//!
//! Each evaluation artifact of the paper maps to a binary in `src/bin/`
//! and a data-producing function here (shared with the criterion
//! benches):
//!
//! | Paper artifact | Function | Binary |
//! |---|---|---|
//! | Table 1 (FPGA resources) | [`resources::board_resources`] | `table1` |
//! | Figure 5 (BISP timing) | [`figures::fig05_nearby`], [`figures::fig05_remote`] | `fig05` |
//! | Figure 6 (sync placement) | [`figures::fig06_listing`] | `fig06` |
//! | Figure 7 (non-zero overhead) | [`figures::fig07_overhead`] | `fig07` |
//! | Figure 11 (calibration) | `hisq_analog::experiments` | `fig11` |
//! | Figures 12/13 (electronics sync) | [`figures::fig13_waveforms`] | `fig13` |
//! | Figure 15 (runtime vs baseline) | [`figures::fig15_scenarios`] | `fig15` |
//! | Figure 16 (infidelity vs T1) | [`figures::fig16_scenarios`] | `fig16` |
//! | Link contention (beyond the paper) | [`figures::fig_contention_scenarios`] | `fig_contention` |
//! | Gate-error noise (beyond the paper) | [`figures::fig_noise_scenarios`] | `fig_noise` |
//! | Heterogeneous fabric (beyond the paper) | [`figures::fig_hetero_grids`] | `fig_hetero` |
//! | Sweep throughput (beyond the paper) | [`sweep_throughput::throughput_scenarios`] | `fig_sweep_throughput` |
//! | Multi-tenant saturation (beyond the paper) | [`load::fig_load_scenarios`] | `fig_load` |
//!
//! Every binary shares the [`cli::FigArgs`] flag surface
//! (`--threads N`, `--json`, `--quick`). The scenario-driven functions
//! return their grid as a `distributed_hisq::scenario::ScenarioFile`
//! (one per heterogeneous-fabric grid), the same format `hisq run`
//! reads; the harness expands it and fans the scenarios out over the
//! `hisq_sim::sweep` worker pool.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cli;
pub mod figures;
pub mod load;
pub mod resources;
pub mod scale;
pub mod sweep_throughput;
