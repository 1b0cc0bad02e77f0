//! `paper`: everything `reproduce paper` does, in-process — the Fig. 3
//! sweep, the merged campaign (Table II, Table III, Fig. 10, Fig. 11, MC
//! validation) on the campaign pool with no cache or journal, the
//! table/figure assembly and the ablations — with the random graphs
//! drawn from the benchmark seed. At the default seed the report text
//! is byte for byte `reproduce paper`'s stdout.

use std::fmt::Write as _;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use sea_campaign::{dispatch_order, run_unit, RunConfig, Unit, UnitPayload, UnitResult};
use sea_experiments::ablations::{
    exposure_ablation, mc_from_results, mc_table, mc_units, reference_design, seed_ablation,
    ser_sensitivity,
};
use sea_experiments::{campaigns, fig10, fig11, fig3, fig9, table2, table3, EffortProfile};
use sea_opt::SearchBudget;
use sea_taskgraph::soa::TaskGraphSoa;
use sea_taskgraph::Application;

use crate::trace;
use crate::{Layers, Outcome, Params, JOBS};

const T3_CORES: [usize; 5] = [2, 3, 4, 5, 6];

/// Everything the timed phase needs, built by the set-up.
struct Inputs {
    app60: Arc<Application>,
    t3_workloads: Vec<(String, Application)>,
    mc_designs: Vec<(String, sea_sched::Mapping, sea_arch::ScalingVector)>,
    units: Vec<Unit>,
    ranges: Vec<Range<usize>>,
    /// Set-up phases, seconds: graph generation + SoA, cost-model order.
    build_s: f64,
    order_s: f64,
}

fn setup(profile: EffortProfile, graph_seed: u64) -> Inputs {
    let t = Instant::now();
    let mpeg2 = Arc::new(sea_taskgraph::mpeg2::application());
    let app60 = Arc::new(
        sea_taskgraph::generator::RandomGraphConfig::paper(60)
            .generate(graph_seed)
            .expect("valid generator parameters"),
    );
    let t3_workloads = table3::paper_workloads(graph_seed);
    let (ref_app, _, ref_mapping, ref_scaling) = reference_design();
    let ref_app = Arc::new(ref_app);
    for app in [&mpeg2, &app60, &ref_app] {
        let _ = TaskGraphSoa::shared(app);
    }
    let build_s = t.elapsed().as_secs_f64();

    let mc_designs = vec![("Exp:4 (proposed)".to_string(), ref_mapping, ref_scaling)];
    let (units, ranges) = campaigns::merge(vec![
        table2::units_on(&mpeg2, profile, 4),
        table3::units_on(&t3_workloads, &T3_CORES, profile),
        fig10::units_on(&app60, &T3_CORES, profile),
        fig11::units_on(&app60, 6, profile),
        mc_units(&ref_app, &mc_designs, 3, 13),
    ]);

    // The pool's cost-model order; it also builds (and memoizes) the
    // SoA view of every inline application the units carry.
    let t = Instant::now();
    let all: Vec<usize> = (0..units.len()).collect();
    std::hint::black_box(dispatch_order(&units, &all));
    let order_s = t.elapsed().as_secs_f64();

    Inputs {
        app60,
        t3_workloads,
        mc_designs,
        units,
        ranges,
        build_s,
        order_s,
    }
}

/// The timed phase: Fig. 3, the merged campaign, assembly, ablations.
/// Returns the report text and the campaign's results.
fn timed(inputs: &Inputs, profile: EffortProfile) -> (String, Vec<UnitResult>) {
    let mut out = String::new();
    let f3 = {
        let _s = trace::span("experiments.fig3", 1);
        fig3::run(120, 42).expect("Fig. 3 sweep")
    };
    let _render = trace::span("experiments.render", 1);
    let s = f3.summary();
    let _ = writeln!(out, "## Fig. 3 (120 random mappings, 4 cores)");
    let _ = writeln!(
        out,
        "corr(TM, R)            = {:+.3}   (paper: negative trade-off)",
        s.corr_tm_r
    );
    let _ = writeln!(
        out,
        "Gamma ratio s2/s1      = {:.2}    (paper: ~2.5x)",
        s.gamma_ratio
    );
    let _ = writeln!(
        out,
        "TM ratio s2/s1         = {:.2}    (paper: ~2x)",
        s.tm_ratio
    );
    let _ = writeln!(
        out,
        "Gamma concavity edges  = {:.2} / {:.2} over the minimum (paper: concave)\n",
        s.gamma_edge_over_min_low, s.gamma_edge_over_min_high
    );
    drop(_render);

    let (results, _stats) = {
        let _s = trace::span("campaign.pool.run_configured", JOBS);
        campaigns::run_configured(
            &inputs.units,
            RunConfig::new(JOBS),
            &mut sea_campaign::NullSink,
        )
        .expect("campaign run")
    };

    let _render = trace::span("experiments.render", 1);
    let r = &inputs.ranges;
    let t2 = table2::from_results(&results[r[0].clone()]).expect("Table II");
    let _ = writeln!(out, "{}", t2.to_table().to_ascii());
    let violations = t2.shape_violations();
    if violations.is_empty() {
        let _ = writeln!(out, "shape: all Table II orderings reproduced\n");
    } else {
        let _ = writeln!(out, "shape violations: {violations:?}\n");
    }
    let f9 = fig9::from_table2(&t2).expect("Fig. 9");
    let _ = writeln!(out, "{}", f9.to_table().to_ascii());

    let t3 = table3::from_results(&inputs.t3_workloads, &T3_CORES, &results[r[1].clone()]);
    let _ = writeln!(out, "{}", t3.to_table().to_ascii());
    for (label, monotone, total) in t3.gamma_monotonicity() {
        let _ = writeln!(
            out,
            "Gamma growth with cores [{label}]: {monotone}/{total} steps monotone"
        );
    }
    let _ = writeln!(out);

    let f10 = fig10::from_results(&T3_CORES, &results[r[2].clone()]);
    let _ = writeln!(out, "{}", f10.to_table().to_ascii());
    let _ = writeln!(
        out,
        "proposed Gamma win rate vs Exp:3: {:.0}%\n",
        f10.proposed_win_rate() * 100.0
    );

    let f11 = fig11::from_results(&results[r[3].clone()]).expect("Fig. 11");
    let _ = writeln!(out, "{}", f11.to_table().to_ascii());
    drop(_render);
    let iso = {
        // The optimizer runs its own scaling-chunk pool at the default
        // job count here.
        let _s = trace::span("experiments.level_isolation", JOBS);
        fig11::level_isolation(&inputs.app60, 6, profile).expect("level isolation")
    };
    let _render = trace::span("experiments.render", 1);
    let _ = writeln!(
        out,
        "fixed-mapping level isolation (busy-cycle accounting):"
    );
    for (levels, p, g) in &iso {
        let _ = writeln!(out, "  {levels} levels: P = {p:.2} mW, Gamma = {g:.3e}");
    }
    let _ = writeln!(out);
    drop(_render);

    let _abl = trace::span("experiments.ablations", 1);
    let (app, arch, mapping, scaling) = reference_design();
    let exp = exposure_ablation(&app, &arch, &mapping, &scaling).expect("exposure ablation");
    let _ = writeln!(out, "## Ablations (reference design: Table II Exp:4)");
    let _ = writeln!(
        out,
        "exposure: Gamma whole-run = {:.3e}, busy-only = {:.3e} ({:.0}% of whole-run)",
        exp.gamma_whole_run,
        exp.gamma_busy_only,
        exp.gamma_busy_only / exp.gamma_whole_run * 100.0
    );
    let seed_ab = seed_ablation(
        &app,
        &arch,
        &scaling,
        SearchBudget {
            max_evaluations: 2_000,
            max_stale_sweeps: 2,
            time_limit: None,
        },
        9,
    )
    .expect("seed ablation");
    let _ = writeln!(
        out,
        "seeding:  search from SEA seed -> Gamma {:.3e}; from balanced seed -> {:.3e}; raw SEA seed {:.3e}",
        seed_ab.gamma_from_sea_seed, seed_ab.gamma_from_balanced_seed, seed_ab.gamma_sea_seed_raw
    );
    let sens =
        ser_sensitivity(&app, &arch, &mapping, &scaling, &[1e-10, 1e-9, 1e-8]).expect("SER sweep");
    let _ = write!(out, "SER sweep: ");
    for (ser, gamma) in &sens {
        let _ = write!(out, "lambda={ser:.0e} -> Gamma={gamma:.2e}  ");
    }
    let _ = writeln!(out);
    let mc = mc_from_results(&inputs.mc_designs, &results[r[4].clone()]);
    let _ = writeln!(out, "{}", mc_table(&mc).to_ascii());
    (out, results)
}

/// Runs the workload: set-up several times (median reported), then one
/// timed pass; a traced run traces that pass, then replays its units.
pub fn run(p: &Params, o: &mut Outcome, traced_run: bool) {
    let profile = if p.tiny {
        EffortProfile::Smoke
    } else {
        EffortProfile::Paper
    };
    let mut inputs = None;
    for _ in 0..if p.tiny { 3 } else { 9 } {
        let t = Instant::now();
        let built = setup(profile, p.seed);
        o.setup.push(t.elapsed().as_secs_f64());
        o.layer_samples("taskgraph.build_s", built.build_s);
        o.layer_samples("campaign.pool.dispatch_order_s", built.order_s);
        inputs = Some(built);
    }
    let inputs = inputs.expect("at least one set-up");
    o.size(
        "units",
        format!(
            "{} campaign units (Table II/III, Fig. 10/11, MC) + Fig. 3 + ablations, {profile:?} budgets, jobs {JOBS}",
            inputs.units.len()
        ),
    );

    // One pass, about two run lengths on the reference host. A traced
    // run traces that pass: an untraced twin would push it toward the
    // run time limit, so its trace overhead is the tracer's own
    // recording time.
    trace::set_enabled(traced_run);
    let c0 = crate::stats::cpu_time();
    let t = Instant::now();
    let (report, live) = {
        let _s = trace::span("bench.timed", JOBS);
        timed(&inputs, profile)
    };
    let wall = t.elapsed().as_secs_f64();
    let cpu = (crate::stats::cpu_time() - c0).as_secs_f64();
    trace::set_enabled(false);
    o.rep(traced_run, wall, cpu, live.len());
    if !traced_run {
        o.latencies.push(wall);
    }
    for r in &live {
        o.check_record(&r.record);
    }
    o.check_digest(if p.tiny { "paper-tiny" } else { "paper" }, &report);

    if traced_run {
        trace::set_enabled(true);
        let busy = replay(o, &inputs.units, &live);
        trace::set_enabled(false);
        let spans = trace::spans();
        let pool = trace::total(&spans, "campaign.pool.run_configured");
        // The replay re-times the units under the same contention, so
        // its sum can overshoot the pool's capacity by noise: the raw
        // difference is printed, the metric floors at zero.
        let idle = JOBS as f64 * pool - busy;
        println!(
            "pool: {JOBS} x {pool:.3} s capacity, {busy:.3} s replayed unit busy, idle {idle:.3} s"
        );
        o.layer("campaign.pool.idle_s", idle.max(0.0));
        o.layer(
            "experiments.render_s",
            trace::total(&spans, "experiments.render"),
        );
        o.layer(
            "bench.trace_attributed_frac",
            trace::coverage(&spans, "bench.timed", 1),
        );
        o.layer("bench.trace_overhead_s", trace::bookkeeping_s());
    }
}

/// Replays every campaign unit through `run_unit` on `JOBS` threads
/// (the pool's width, cost-model order) to time what the pool ran
/// internally: busy time per unit kind, evaluations, pruning.
fn replay(o: &mut Outcome, units: &[Unit], live: &[UnitResult]) -> f64 {
    let all: Vec<usize> = (0..units.len()).collect();
    let order = dispatch_order(units, &all);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let timed: std::sync::Mutex<Vec<(usize, f64, UnitResult)>> = std::sync::Mutex::new(Vec::new());
    let parent = trace::span("bench.replay", JOBS);
    let parent_id = parent.id();
    std::thread::scope(|s| {
        for _ in 0..JOBS {
            s.spawn(|| loop {
                let k = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(&i) = order.get(k) else { break };
                let t = Instant::now();
                let result = run_unit(&units[i]).expect("replayed unit runs");
                let end = Instant::now();
                trace::record(
                    layer_span_of(&result.payload, &result.record.kind),
                    parent_id,
                    t,
                    end,
                );
                timed.lock().expect("replay collector poisoned").push((
                    i,
                    (end - t).as_secs_f64(),
                    result,
                ));
            });
        }
    });
    drop(parent);
    let timed = timed.into_inner().expect("replay collector poisoned");
    let mut layers = Layers::default();
    for (i, secs, result) in &timed {
        // The replay must reproduce the live run's record exactly.
        if let Some(live) = live.get(*i) {
            if sea_campaign::json_record(&live.record) != sea_campaign::json_record(&result.record)
            {
                o.fail(format!("replayed unit {i} differs from the campaign run"));
            }
        }
        layers.unit(&result.payload, &result.record, *secs);
    }
    layers.finish(o);
    layers.busy()
}

/// The span name a unit's evaluation is recorded under, by layer.
pub fn layer_span_of(payload: &UnitPayload, kind: &str) -> &'static str {
    match payload {
        UnitPayload::Sim(_) => "sim.run_unit",
        _ if kind == "sweep" || kind.starts_with("baseline") => "baselines.run_unit",
        _ => "opt.run_unit",
    }
}
