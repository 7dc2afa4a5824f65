//! Seeded scenario-file text for each workload.
//!
//! The seed draws backend seeds, noise rates, offered-load jitter and
//! compile-stage parameters (mesh, router and star latencies) inside
//! narrow ranges, so every seed keeps its workload's shape: the same
//! workloads, schemes and grid sizes, in the same order. The program
//! under test only ever sees the generated text.

use distributed_hisq::quantum::noise::splitmix64;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "cold_compile",
    "lockstep_engine",
    "replay_sweep",
    "job_load",
];

/// One generated scenario file: a stable name and its JSON text.
#[derive(Debug, Clone)]
pub struct ScenarioText {
    pub name: &'static str,
    pub text: String,
}

/// Paper-scale BISP instances of `cold_compile`, one compile key each.
const COLD_PAPER: [&str; 6] = [
    "qft_n30",
    "logical_t_n432",
    "bv_n400",
    "qft_n100",
    "adder_n577",
    "w_state_n800",
];
/// The quick suite, run by `cold_compile` under both schemes.
const QUICK: [&str; 6] = [
    "adder_n13",
    "bv_n16",
    "logical_t_d3",
    "logical_t_d3x2",
    "qft_n10",
    "w_state_n12",
];
/// Lock-step instances of `lockstep_engine`.
const LOCKSTEP: [&str; 3] = ["qft_n100", "bv_n400", "logical_t_n432"];
/// Backend seeds per `lockstep_engine` instance (one compile each).
const LOCKSTEP_SEEDS: usize = 6;
/// Large BISP instances of `replay_sweep`.
const REPLAY: [&str; 3] = ["w_state_n1000", "w_state_n800", "logical_t_n864"];
/// Backend seeds per `replay_sweep` instance and noise setting.
const REPLAY_SEEDS: usize = 5;
/// Jobs per `job_load` grid point (a third from the priority-0
/// tenant, two thirds from the priority-1 tenant).
const JOBS_PER_POINT: u64 = 1050;
/// Offered loads of `job_load`: below and past saturation.
const RHOS: [f64; 2] = [0.5, 1.2];
/// Approximate simulated service time (ns) of one `w_state_n12` job
/// at default latencies, per scheme; sets the arrival rates for `RHOS`.
const SERVICE_NS_BISP: f64 = 25_220.0;
const SERVICE_NS_LOCKSTEP: f64 = 30_536.0;

/// A SplitMix64 stream over the workload seed.
struct Draws {
    state: u64,
}

impl Draws {
    fn new(seed: u64, workload: usize) -> Draws {
        Draws {
            state: splitmix64(seed ^ (workload as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.state)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    /// Uniform in `[lo, hi)`, rounded to four significant decimals so
    /// the text stays short.
    fn real(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        let x = lo + (hi - lo) * unit;
        let scale = 10f64.powi(3 - x.abs().log10().floor() as i32);
        (x * scale).round() / scale
    }

    /// A backend seed that fits every JSON reader exactly.
    fn seed(&mut self) -> u64 {
        self.next() >> 24
    }
}

fn suite_list(names: &[&str]) -> String {
    let values: Vec<String> = names
        .iter()
        .map(|n| format!("{{\"suite\": \"{n}\"}}"))
        .collect();
    values.join(", ")
}

fn seed_list(draws: &mut Draws, n: usize) -> String {
    let values: Vec<String> = (0..n).map(|_| draws.seed().to_string()).collect();
    values.join(", ")
}

fn file(name: &str, base: &str, axes: &[String]) -> String {
    format!(
        "{{\n  \"schema_version\": 1,\n  \"name\": \"{name}\",\n  \"base\": {base},\n  \"axes\": [\n    {}\n  ]\n}}\n",
        axes.join(",\n    ")
    )
}

/// The scenario files of `workload` for `seed`, or `None` for an
/// unknown workload name.
pub fn generate(workload: &str, seed: u64) -> Option<Vec<ScenarioText>> {
    let index = WORKLOADS.iter().position(|w| *w == workload)?;
    let mut d = Draws::new(seed, index);
    let files = match workload {
        "cold_compile" => {
            let paper_base = format!(
                "{{\"workload\": {{\"suite\": \"qft_n30\"}}, \"scheme\": \"bisp\", \"seed\": {}, \
                 \"params\": {{\"neighbor_latency\": {}, \"router_latency\": {}}}}}",
                d.seed(),
                d.range(4, 6),
                d.range(9, 12),
            );
            let quick_base = format!(
                "{{\"workload\": {{\"suite\": \"adder_n13\"}}, \"scheme\": \"bisp\", \"seed\": {}, \
                 \"params\": {{\"neighbor_latency\": {}, \"router_latency\": {}, \
                 \"star_up_latency\": {}, \"star_down_latency\": {}}}}}",
                d.seed(),
                d.range(4, 6),
                d.range(9, 12),
                d.range(22, 28),
                d.range(22, 28),
            );
            vec![
                ScenarioText {
                    name: "cold_paper",
                    text: file(
                        "cold_paper",
                        &paper_base,
                        &[format!(
                            "{{\"axis\": \"workload\", \"values\": [{}]}}",
                            suite_list(&COLD_PAPER)
                        )],
                    ),
                },
                ScenarioText {
                    name: "cold_quick",
                    text: file(
                        "cold_quick",
                        &quick_base,
                        &[
                            format!(
                                "{{\"axis\": \"workload\", \"values\": [{}]}}",
                                suite_list(&QUICK)
                            ),
                            "{\"axis\": \"scheme\", \"values\": [\"bisp\", \"lockstep\"]}"
                                .to_string(),
                        ],
                    ),
                },
            ]
        }
        "lockstep_engine" => {
            let base = format!(
                "{{\"workload\": {{\"suite\": \"qft_n100\"}}, \"scheme\": \"lockstep\", \
                 \"params\": {{\"star_up_latency\": {}, \"star_down_latency\": {}}}}}",
                d.range(22, 28),
                d.range(22, 28),
            );
            vec![ScenarioText {
                name: "lockstep_seeds",
                text: file(
                    "lockstep_seeds",
                    &base,
                    &[
                        format!(
                            "{{\"axis\": \"workload\", \"values\": [{}]}}",
                            suite_list(&LOCKSTEP)
                        ),
                        format!(
                            "{{\"axis\": \"seed\", \"values\": [{}]}}",
                            seed_list(&mut d, LOCKSTEP_SEEDS)
                        ),
                    ],
                ),
            }]
        }
        "replay_sweep" => {
            let base = format!(
                "{{\"workload\": {{\"suite\": \"w_state_n1000\"}}, \"scheme\": \"bisp\", \
                 \"params\": {{\"neighbor_latency\": {}, \"router_latency\": {}}}}}",
                d.range(4, 6),
                d.range(9, 12),
            );
            let noisy = format!(
                "{{\"p_gate_1q\": {}, \"p_gate_2q\": {}, \"p_meas\": {}, \"p_leak\": {}}}",
                d.real(5e-4, 2e-3),
                d.real(5e-3, 2e-2),
                d.real(1e-2, 3e-2),
                d.real(1e-3, 3e-3),
            );
            vec![ScenarioText {
                name: "replay",
                text: file(
                    "replay",
                    &base,
                    &[
                        format!(
                            "{{\"axis\": \"workload\", \"values\": [{}]}}",
                            suite_list(&REPLAY)
                        ),
                        format!("{{\"axis\": \"noise\", \"values\": [{{}}, {noisy}]}}"),
                        format!(
                            "{{\"axis\": \"seed\", \"values\": [{}]}}",
                            seed_list(&mut d, REPLAY_SEEDS)
                        ),
                    ],
                ),
            }]
        }
        "job_load" => {
            let mut job_file = |name: &'static str, scheme: &str, service_ns: f64| {
                let loads: Vec<String> = RHOS
                    .iter()
                    .map(|rho| {
                        // Total rate for utilization `rho` on 2
                        // partitions, jittered by up to ±4%.
                        let total_per_ms = rho * 2.0 * 1e6 / service_ns * d.real(0.96, 1.04);
                        let hi = (total_per_ms / 3.0 * 1000.0).round() / 1000.0;
                        let lo = (total_per_ms * 2.0 / 3.0 * 1000.0).round() / 1000.0;
                        format!(
                            "{{\"streams\": [\
                             {{\"process\": \"poisson\", \"rate_per_ms\": {hi}, \"jobs\": {}}}, \
                             {{\"process\": \"poisson\", \"rate_per_ms\": {lo}, \"jobs\": {}, \"priority\": 1}}], \
                             \"partitions\": 2, \"queue_capacity\": 16}}",
                            JOBS_PER_POINT / 3,
                            JOBS_PER_POINT - JOBS_PER_POINT / 3,
                        )
                    })
                    .collect();
                let base = format!(
                    "{{\"workload\": {{\"suite\": \"w_state_n12\"}}, \"scheme\": \"{scheme}\", \"seed\": {}}}",
                    d.seed()
                );
                ScenarioText {
                    name,
                    text: file(
                        name,
                        &base,
                        &[format!(
                            "{{\"axis\": \"load\", \"values\": [{}]}}",
                            loads.join(", ")
                        )],
                    ),
                }
            };
            vec![
                job_file("jobs_bisp", "bisp", SERVICE_NS_BISP),
                job_file("jobs_lockstep", "lockstep", SERVICE_NS_LOCKSTEP),
            ]
        }
        _ => unreachable!("workload index checked above"),
    };
    Some(files)
}
