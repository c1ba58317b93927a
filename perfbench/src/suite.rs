//! `sim_suite`: the paper-scale application suite (EM3D in its three
//! versions, Water in both versions, blocked LU; each in Split-C and in
//! CC++/ThAM; `CostModel::default()`) under the simulator, one cell after
//! another on one thread. No LocalFabric code runs.
//!
//! Pass 0 of every run uses the paper's inputs and must reproduce the
//! reference counters exactly; later passes draw the applications' input
//! seeds from the run's seed. Every pass checks that the Split-C and CC++
//! versions of each application compute the same output.

use crate::spans::Spans;
use crate::{Cfg, E2e, Metric, Rng, Scale};
use mpmd_apps::em3d::{self, Em3dParams, Em3dValues, Em3dVersion};
use mpmd_apps::lu::{self, LuParams};
use mpmd_apps::water::{self, WaterParams, WaterVersion};
use mpmd_apps::AppRun;
use mpmd_ccxx::CcxxConfig;
use mpmd_sim::{CostModel, Sim};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Counters of one paper-input pass: messages sent, context switches and
/// summed virtual elapsed time. A change that keeps the simulated path
/// byte-identical keeps these.
pub const REFERENCE: Counts = Counts {
    msgs: 242_906,
    switches: 221_609,
    virtual_ns: 3_407_729_990,
};

/// Passes after which `peak_rss_mb` is read.
const RSS_AFTER: u64 = 5;

/// Simulator starts timed before each pass for `setup_s`. The start time
/// shifts between about 15 and 24 us from one stretch of starts to the
/// next, so starts spread over the whole run, not bunched at its
/// beginning, keep its median steady from run to run.
const SETUP_PROBES: usize = 11;

pub const APPS: [&str; 3] = ["em3d", "water", "lu"];

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub msgs: u64,
    pub switches: u64,
    pub virtual_ns: u64,
}

impl Counts {
    fn add<T>(&mut self, r: &AppRun<T>) {
        self.msgs += r.breakdown.counts.msgs_sent;
        self.switches += r.breakdown.counts.context_switches;
        self.virtual_ns += r.breakdown.elapsed;
    }
}

struct Inputs {
    em3d: Em3dParams,
    water: WaterParams,
    lu: LuParams,
}

/// The paper's inputs (`seed` = None) or ones with seeded app seeds.
fn inputs(scale: Scale, seed: Option<u64>) -> Inputs {
    let mut inp = match scale {
        Scale::Paper => Inputs {
            em3d: Em3dParams::paper(1.0),
            water: WaterParams::paper(64),
            lu: LuParams::paper(),
        },
        Scale::Quick => Inputs {
            em3d: Em3dParams {
                graph_nodes: 64,
                degree: 4,
                procs: 4,
                steps: 1,
                remote_frac: 1.0,
                seed: 42,
            },
            water: WaterParams {
                n_mol: 8,
                steps: 1,
                ..WaterParams::paper(8)
            },
            lu: LuParams {
                n: 32,
                block: 8,
                procs: 4,
                seed: 101,
            },
        },
    };
    if let Some(seed) = seed {
        let mut rng = Rng::new(seed);
        inp.em3d.seed = rng.next_u64();
        inp.water.seed = rng.next_u64();
        inp.lu.seed = rng.next_u64();
    }
    inp
}

struct Pass {
    counts: Counts,
    /// Application outputs on which the two languages disagree.
    disagree: u32,
    /// Wall ns per application, in [`APPS`] order.
    app_ns: [u64; 3],
}

fn run_pass(inp: &Inputs, sp: &mut Option<Spans>, op: u64, corrupt: bool) -> Pass {
    let mut p = Pass {
        counts: Counts::default(),
        disagree: 0,
        app_ns: [0; 3],
    };
    let root = sp.as_mut().map(|s| s.begin("op.pass", 0, op));
    let parent = root.as_ref().map_or(0, |o| o.id());
    let mut cell = |app: usize, name: &'static str, f: &mut dyn FnMut()| {
        let t = Instant::now();
        match sp.as_mut() {
            None => f(),
            Some(s) => s.time(name, parent, op, f),
        }
        p.app_ns[app] += t.elapsed().as_nanos() as u64;
    };
    let cost = CostModel::default;
    let mut em3d_out: Vec<Em3dValues> = Vec::new();
    for v in Em3dVersion::ALL {
        cell(0, "apps.em3d", &mut || {
            let sc = em3d::run_splitc_cost(&inp.em3d, v, cost());
            let cc = em3d::run_ccxx(&inp.em3d, v, CcxxConfig::tham(), cost());
            p.counts.add(&sc);
            p.counts.add(&cc);
            em3d_out.extend([sc.output, cc.output]);
        });
    }
    if corrupt {
        // The injected fault: one language's result is off in one value.
        em3d_out[1].e[0] += 1.0;
    }
    // All three versions compute the same fields.
    p.disagree += em3d_out
        .iter()
        .filter(|o| o.e != em3d_out[0].e || o.h != em3d_out[0].h)
        .count() as u32;
    for v in WaterVersion::ALL {
        cell(1, "apps.water", &mut || {
            let sc = water::run_splitc_cost(&inp.water, v, cost());
            let cc = water::run_ccxx(&inp.water, v, CcxxConfig::tham(), cost());
            p.counts.add(&sc);
            p.counts.add(&cc);
            p.disagree += (sc.output.pos != cc.output.pos
                || sc.output.energy.to_bits() != cc.output.energy.to_bits())
                as u32;
        });
    }
    cell(2, "apps.lu", &mut || {
        let sc = lu::run_splitc_cost(&inp.lu, cost());
        let cc = lu::run_ccxx(&inp.lu, CcxxConfig::tham(), cost());
        p.counts.add(&sc);
        p.counts.add(&cc);
        p.disagree += (sc.output.factored != cc.output.factored) as u32;
    });
    if let (Some(s), Some(o)) = (sp.as_mut(), root) {
        s.end(o);
    }
    p
}

pub struct SuiteRun {
    pub e2e: E2e,
    /// Counters of the paper-input pass.
    pub reference: Counts,
    /// Summed counters and wall time of every pass.
    pub counts: Counts,
    pub wall_ns: u64,
    pub app_ns: [u64; 3],
    pub passes: u64,
    pub spans: Option<Spans>,
}

/// Builder call to node 0 leaving `splitc::init` (which ends with a
/// barrier) on a 4-node simulation, as every Split-C application starts.
fn setup_probe() -> f64 {
    let first = Arc::new(Mutex::new(0.0));
    let f2 = Arc::clone(&first);
    let t = Instant::now();
    Sim::new(4).run(move |ctx| {
        mpmd_splitc::init(&ctx);
        if ctx.node() == 0 {
            *f2.lock().expect("no panics hold this lock") = t.elapsed().as_secs_f64();
        }
    });
    let v = *first.lock().expect("the run has ended");
    v
}

pub fn run(cfg: &Cfg, spans: Option<Spans>) -> SuiteRun {
    let mut res = SuiteRun {
        e2e: E2e::default(),
        reference: Counts::default(),
        counts: Counts::default(),
        wall_ns: 0,
        app_ns: [0; 3],
        passes: 0,
        spans,
    };
    let start = Instant::now();
    for i in 0.. {
        crate::announce(1);
        res.e2e
            .setups
            .extend((0..SETUP_PROBES).map(|_| setup_probe()));
        let inp = inputs(cfg.scale, (i > 0).then(|| cfg.seed.wrapping_add(i)));
        let t = Instant::now();
        let p = run_pass(&inp, &mut res.spans, i, cfg.corrupt && i == 0);
        let ns = t.elapsed().as_nanos() as u64;
        let mut ok = p.disagree == 0;
        if i == 0 {
            res.reference = p.counts;
            // The reference counters exist for the paper inputs only.
            ok &= cfg.scale == Scale::Quick || p.counts == REFERENCE;
        }
        let e = &mut res.e2e;
        let mut h = crate::hist::Hist::default();
        h.record(ns);
        e.epochs.push(h);
        e.busy += std::time::Duration::from_nanos(ns);
        e.rates.push(1e9 / ns as f64);
        e.attempted += 1;
        e.failed += !ok as u64;
        res.counts.msgs += p.counts.msgs;
        res.counts.switches += p.counts.switches;
        res.counts.virtual_ns += p.counts.virtual_ns;
        res.wall_ns += ns;
        for (a, b) in res.app_ns.iter_mut().zip(p.app_ns) {
            *a += b;
        }
        res.passes += 1;
        res.e2e.note_rss(res.passes, RSS_AFTER);
        if start.elapsed() >= cfg.time {
            break;
        }
    }
    res
}

/// Per-layer metrics. The `sim.*` counts are the paper-input pass's and
/// must not change; the `apps.*` times are per pass.
pub fn layer_metrics(r: &SuiteRun) -> Vec<Metric> {
    let n = r.passes;
    let mut m = vec![
        Metric::new(
            "sim.wall_ns_per_msg",
            r.wall_ns as f64 / r.counts.msgs.max(1) as f64,
            "ns",
            r.counts.msgs,
        ),
        Metric::new(
            "sim.wall_ns_per_switch",
            r.wall_ns as f64 / r.counts.switches.max(1) as f64,
            "ns",
            r.counts.switches,
        ),
        Metric::new("sim.msgs", r.reference.msgs as f64, "count", 1),
        Metric::new("sim.switches", r.reference.switches as f64, "count", 1),
        Metric::new(
            "sim.virtual_ns",
            r.reference.virtual_ns as f64,
            "virtual_ns",
            1,
        ),
        Metric::new(
            "am.msgs_per_op.suite",
            r.counts.msgs as f64 / n.max(1) as f64,
            "count",
            n,
        ),
    ];
    for (app, ns) in APPS.iter().zip(r.app_ns) {
        m.push(Metric::new(
            format!("apps.cell_s.{app}"),
            ns as f64 / 1e9 / n.max(1) as f64,
            "s",
            n,
        ));
    }
    m
}
