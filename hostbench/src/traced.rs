//! The traced pass: the work of an untraced pass, split at the public
//! boundary of each module, with a span around every call.
//!
//! `CompiledArtifact` keeps its system description private, so a grid
//! point runs the public path the runner itself is built from:
//! `WorkloadSpec::build` → `TopologyBuilder` → `compile_bisp` /
//! `compile_lockstep` → `system_spec` → backend and fabric selection →
//! `SystemSpec::build` → `System::run`. Compiles are shared per
//! `Scenario::compile_key` exactly as `CompileCache` shares them. A
//! load point calls `run_load` whole. The pass leaves out the runner's
//! record distillation; each point's simulated results are checked
//! against its record from the untraced reference pass instead.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use distributed_hisq::compiler::{
    compile_bisp, compile_lockstep, BispOptions, LockstepOptions, Scheme,
};
use distributed_hisq::isa::Assembler;
use distributed_hisq::load::{run_load, JobOutcome, LoadOutcome};
use distributed_hisq::net::TopologyBuilder;
use distributed_hisq::runner::{effective_maps, system_spec, CompileCache, CompileKey, Scenario};
use distributed_hisq::scenario::ScenarioFile;
use distributed_hisq::sim::{
    BackendSpec, Metric, SimReport, SweepRecord, SweepReport, SweepRunner, SystemSpec,
};

use crate::inputs::ScenarioText;
use crate::pass::{executions, finished, FileRun, Tally, THREADS};
use crate::trace::{Recorder, Span, PASS, POINT, SWEEP_MAP};

/// One compile stage's output, as the runner keeps it.
struct Compiled {
    spec: SystemSpec,
    /// The emitted assembly, kept for the assembler probe.
    sources: Vec<String>,
}

type Cell = Arc<OnceLock<Result<Arc<Compiled>, String>>>;

/// A leader-computes compile cache keyed like `CompileCache`: the
/// first worker to claim a key compiles it; a concurrent worker with
/// the same key waits on the cell and counts as a hit.
#[derive(Default)]
struct BenchCache {
    cells: Mutex<HashMap<CompileKey, Cell>>,
}

impl BenchCache {
    fn get_or_compile(
        &self,
        scenario: &Scenario,
        rec: &mut Recorder,
    ) -> Result<Arc<Compiled>, String> {
        let cell = self
            .cells
            .lock()
            .expect("bench cache lock")
            .entry(scenario.compile_key())
            .or_default()
            .clone();
        let mut leader = false;
        let result = cell
            .get_or_init(|| {
                leader = true;
                compile(scenario, rec).map(Arc::new)
            })
            .clone();
        rec.count(
            if leader {
                "runner.cache_misses"
            } else {
                "runner.cache_hits"
            },
            1,
        );
        result
    }

    fn artifacts(&self) -> Vec<Arc<Compiled>> {
        let cells = self.cells.lock().expect("bench cache lock");
        cells
            .values()
            .filter_map(|cell| cell.get().and_then(|r| r.as_ref().ok()).cloned())
            .collect()
    }
}

/// The runner's compile stage through public functions.
fn compile(s: &Scenario, rec: &mut Recorder) -> Result<Compiled, String> {
    if !s.surgery.is_empty() || s.params.fabric_aware {
        return Err(format!(
            "{}: the traced path covers scenarios without surgery or fabric-aware placement",
            s.id()
        ));
    }
    let built = rec
        .span("workloads.build", |_| s.workload.build())
        .ok_or_else(|| format!("{}: unknown workload", s.id()))?;
    rec.count("workloads.gates", built.circuit.instructions().len() as u64);
    let p = &s.params;
    let topology = rec.span("net.topology", |_| {
        TopologyBuilder::grid(built.grid.0, built.grid.1)
            .neighbor_latency(p.neighbor_latency)
            .router_latency(p.router_latency)
            .router_arity(p.router_arity)
            .build()
    });
    let compiled = rec
        .span("compiler.compile", |_| match s.scheme {
            Scheme::Bisp => {
                let options = BispOptions {
                    shots: s.shots,
                    ..BispOptions::default()
                };
                compile_bisp(&built.circuit, &topology, &options)
            }
            Scheme::Lockstep => {
                let options = LockstepOptions {
                    star_up_latency: p.star_up_latency,
                    star_down_latency: p.star_down_latency,
                    shots: s.shots,
                    ..LockstepOptions::default()
                };
                compile_lockstep(&built.circuit, &options)
            }
        })
        .map_err(|e| format!("{}: {e}", s.id()))?;
    let spec = rec
        .span("runner.lower", |_| {
            std::hint::black_box(compiled.fingerprint());
            system_spec(
                &compiled,
                matches!(s.scheme, Scheme::Bisp).then_some(&topology),
            )
        })
        .map_err(|e| format!("{}: {e}", s.id()))?;
    rec.count("compiler.compiles", 1);
    Ok(Compiled {
        spec,
        sources: compiled.sources.into_values().collect(),
    })
}

/// The runner's run stage up to the record: backend and fabric
/// selection, build, run.
fn simulate(s: &Scenario, compiled: &Compiled, rec: &mut Recorder) -> Result<SimReport, String> {
    let spec = rec.span("runner.prepare", |_| {
        let (fabric, noise) = effective_maps(s);
        let mut spec = compiled.spec.clone();
        spec.backend(if noise.is_noiseless() {
            BackendSpec::Random {
                seed: s.seed,
                p_one: 0.5,
            }
        } else {
            BackendSpec::Leaky {
                seed: s.seed,
                p_one: 0.5,
                noise,
            }
        });
        spec.link_model(fabric.default_model());
        for (from, to, model) in fabric.overrides() {
            spec.link_model_for(from, to, model);
        }
        spec
    });
    rec.count("sim.controllers", spec.num_controllers() as u64);
    let mut system = rec
        .span("sim.build", |_| spec.build())
        .map_err(|e| format!("{}: {e}", s.id()))?;
    let report = rec
        .span("sim.run", |_| system.run())
        .map_err(|e| format!("{}: {e}", s.id()))?;
    rec.span("sim.drop", move |_| drop(system));
    rec.count("sim.events", report.events_processed);
    rec.count("sim.instructions", report.total_instructions);
    Ok(report)
}

/// Whether a simulation agrees with the untraced record of its point.
fn matches_record(report: &SimReport, record: &SweepRecord) -> bool {
    let counters = [
        ("makespan_cycles", report.makespan_cycles),
        ("makespan_ns", report.makespan_ns),
        ("instructions", report.total_instructions),
        ("syncs", report.total_syncs),
        ("stall_cycles", report.total_stall_cycles),
        ("messages", report.events_processed),
    ];
    report.all_halted
        && matches!(record.metric("all_halted"), Some(Metric::Bool(true)))
        && counters
            .iter()
            .all(|&(name, v)| record.counter(name) == Some(v))
}

struct PointRun {
    rec: Recorder,
    ok: bool,
    load: Option<LoadOutcome>,
}

fn traced_point(
    epoch: Instant,
    point: u32,
    s: &Scenario,
    want: &SweepRecord,
    cache: &BenchCache,
    load_cache: &CompileCache,
) -> PointRun {
    let mut rec = Recorder::new(epoch, Some(point));
    let (ok, load) = rec.span(POINT, |rec| {
        if s.load.is_some() {
            let result = rec.span("load.run_load", |_| {
                run_load(s, load_cache).map(|outcome| {
                    let record = outcome.record(s.id());
                    (outcome, record)
                })
            });
            match result {
                Ok((outcome, record)) => {
                    rec.count("load.jobs_completed", outcome.completed());
                    rec.count("load.jobs_rejected", outcome.rejected());
                    rec.count("load.jobs_submitted", outcome.submitted());
                    (record.to_json() == want.to_json(), Some(outcome))
                }
                Err(_) => (false, None),
            }
        } else {
            let report = rec
                .span("runner.cache", |rec| cache.get_or_compile(s, rec))
                .and_then(|compiled| simulate(s, &compiled, rec));
            (report.is_ok_and(|r| matches_record(&r, want)), None)
        }
    });
    PointRun { rec, ok, load }
}

/// A traced pass with its spans, counters, checks and the inputs of
/// the probes that run after it.
pub struct TracedPass {
    pub spans: Vec<Span>,
    pub counts: BTreeMap<&'static str, u64>,
    pub tally: Tally,
    /// Counters of each grid point, by point id.
    pub point_counts: Vec<(u32, BTreeMap<&'static str, u64>)>,
    compiled: Vec<Arc<Compiled>>,
    loads: Vec<(Scenario, LoadOutcome)>,
}

pub fn traced_pass(files: &[ScenarioText], reference: &[FileRun]) -> TracedPass {
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch, None);
    let mut tally = Tally::default();
    let mut compiled = Vec::new();
    let mut loads = Vec::new();
    let mut point_counts = Vec::new();
    let mut next_point = 0u32;
    rec.span(PASS, |rec| {
        for (file, want) in files.iter().zip(reference) {
            let want_records = want.report.records();
            let want_executions: u64 = want_records.iter().map(executions).sum();
            let points = rec
                .span("scenario.parse", |_| ScenarioFile::parse(&file.text))
                .map(|parsed| rec.span("scenario.expand", |_| parsed.expand(None)));
            let points = match points {
                Ok(points) if points.len() == want_records.len() => points,
                _ => {
                    tally.attempted += want_executions;
                    tally.failed += want_executions;
                    continue;
                }
            };
            rec.count("scenario.points", points.len() as u64);
            let cache = BenchCache::default();
            let load_cache = CompileCache::new();
            let map_span = rec.spans.len();
            let runs = rec.span(SWEEP_MAP, |_| {
                SweepRunner::new(THREADS).map(&points, |i, s| {
                    traced_point(
                        epoch,
                        next_point + i as u32,
                        s,
                        &want_records[i],
                        &cache,
                        &load_cache,
                    )
                })
            });
            for (i, run) in runs.into_iter().enumerate() {
                point_counts.push((next_point + i as u32, run.rec.counts.clone()));
                rec.adopt(run.rec, Some(map_span));
                let n = executions(&want_records[i]);
                tally.attempted += n;
                if run.ok && finished(&want_records[i]) {
                    tally.executions += n;
                } else {
                    tally.failed += n;
                }
                if let Some(outcome) = run.load {
                    loads.push((points[i].clone(), outcome));
                }
            }
            rec.count("runner.cache_hits", load_cache.hits());
            rec.count("runner.cache_misses", load_cache.misses());
            let records = want_records.to_vec();
            let json = rec.span("sweep.emit", |_| {
                SweepReport::from_records(records).to_json()
            });
            rec.count("sweep.report_bytes", json.len() as u64);
            if json != want.json {
                tally.failed += want_executions;
            }
            compiled.extend(cache.artifacts());
            next_point += points.len() as u32;
        }
    });
    TracedPass {
        counts: rec.counts,
        spans: rec.spans,
        tally,
        point_counts,
        compiled,
        loads,
    }
}

/// What the probes after a traced pass measured.
#[derive(Debug, Default)]
pub struct Probes {
    pub assemble_ns: u64,
    pub assembled_lines: u64,
    /// Job-engine replay: `SystemSpec::build` and `System::run` of
    /// every completed job, through the public path.
    pub replay: BTreeMap<&'static str, u64>,
    pub replay_counts: BTreeMap<&'static str, u64>,
    pub tally: Tally,
}

/// Builds and runs every completed job of one load point, each with
/// its job seed, and checks its makespan against the service time the
/// job engine charged for it.
fn replay_jobs(epoch: Instant, scenario: &Scenario, outcome: &LoadOutcome) -> (Recorder, Tally) {
    let mut job_type = scenario.clone();
    job_type.load = None;
    let mut tally = Tally::default();
    let Ok(compiled) = compile(&job_type, &mut Recorder::new(epoch, None)) else {
        tally.attempted = outcome.completed();
        tally.failed = outcome.completed();
        return (Recorder::new(epoch, None), tally);
    };
    let mut rec = Recorder::new(epoch, None);
    for job in &outcome.jobs {
        let JobOutcome::Completed { service_ns, .. } = job.outcome else {
            continue;
        };
        let mut inner = job_type.clone();
        inner.seed = scenario.seed.wrapping_add(job.job as u64);
        let ok = simulate(&inner, &compiled, &mut rec)
            .is_ok_and(|r| r.all_halted && r.makespan_ns == service_ns);
        tally.attempted += 1;
        tally.failed += u64::from(!ok);
    }
    (rec, tally)
}

/// Re-assembles every emitted source (the assembler's share of a
/// compile, which runs inside `compiler.compile`), and replays each
/// completed job of every load point through the public path, checking
/// its makespan against the job engine's service time.
pub fn probes(pass: &TracedPass) -> Probes {
    let mut probes = Probes::default();
    for artifact in &pass.compiled {
        for source in &artifact.sources {
            let start = Instant::now();
            let program = Assembler::new().assemble(std::hint::black_box(source));
            probes.assemble_ns += start.elapsed().as_nanos() as u64;
            probes.assembled_lines += source.lines().count() as u64;
            if program.is_err() {
                probes.tally.attempted += 1;
                probes.tally.failed += 1;
            }
        }
    }
    // Each load point replays on a sweep worker, as `run_load` ran it.
    let epoch = Instant::now();
    let replays = SweepRunner::new(THREADS).map(&pass.loads, |_, (scenario, outcome)| {
        replay_jobs(epoch, scenario, outcome)
    });
    for (rec, tally) in replays {
        probes.tally.attempted += tally.attempted;
        probes.tally.failed += tally.failed;
        for span in &rec.spans {
            *probes.replay.entry(span.name).or_default() += span.duration_ns();
        }
        for (name, n) in rec.counts {
            *probes.replay_counts.entry(name).or_default() += n;
        }
    }
    probes
}
