//! Regenerates every table and figure of the paper in one run — as one
//! campaign.
//!
//! ```text
//! cargo run --release -p sea-experiments --bin reproduce \
//!     [smoke|paper] [--jobs N] [--quiet] [--cache <dir>] [--resume <journal>]
//!     [--distributed [N]]
//! ```
//!
//! The harnesses define their work as campaign unit lists
//! (`sea_experiments::campaigns`); this binary concatenates *all* of them
//! — Table II, Table III, Fig. 10, Fig. 11 and the MC validation — into a
//! single flat list and runs it through one shared worker pool, so the
//! scheduler balances across tables and figures instead of idling between
//! them. Progress streams to stderr as units complete; the assembled
//! reports print to stdout in the usual order. `--jobs N` pins the worker
//! count; the reports are bitwise identical for every value.
//!
//! `--cache <dir>` (or `SEA_CACHE`) consults the content-addressed unit
//! cache before evaluating anything: a warm second run evaluates **zero**
//! units and prints byte-identical stdout. `--resume <journal>`
//! write-ahead journals completed units; on restart, journaled units are
//! restored from the cache when one is configured (without a cache their
//! typed payloads must be recomputed — pair the flags for crash
//! recovery). Timing and cache statistics go to stderr so stdout stays
//! comparable across runs.
//!
//! `--distributed [N]` routes the whole campaign through `sea-dist`: a
//! localhost TCP coordinator plus N (default 2) in-process workers, every
//! unit travelling the full wire path — the smoke proof that distributed
//! and in-process execution print byte-identical stdout.

use std::sync::Arc;
use std::time::Instant;

use sea_campaign::{open_journal, Cache, RunConfig, Sink, UnitRecord};
use sea_experiments::ablations::{
    exposure_ablation, mc_from_results, mc_table, mc_units, reference_design, seed_ablation,
    ser_sensitivity,
};
use sea_experiments::{campaigns, fig10, fig11, fig3, fig9, table2, table3, EffortProfile};
use sea_opt::SearchBudget;

/// Streams one progress line per completed unit to stderr.
struct StderrProgress {
    total: usize,
    done: usize,
    enabled: bool,
}

impl Sink for StderrProgress {
    fn begin(&mut self, total: usize) {
        self.total = total;
        if self.enabled {
            eprintln!("campaign: {total} units across all tables and figures");
        }
    }

    fn unit_completed(&mut self, record: &UnitRecord) {
        self.done += 1;
        if self.enabled {
            eprintln!(
                "[{}/{}] {} {} cores={} levels={} {}",
                self.done,
                self.total,
                record.scenario,
                record.app,
                record.cores,
                record.levels,
                record.status
            );
        }
    }
}

/// The value of `args[at]`'s flag, refusing a missing value or one that
/// is itself a flag (`--cache --quiet` must not create a `./--quiet`
/// cache directory and silently drop the quiet switch).
fn flag_value(args: &[String], at: usize, flag: &str, what: &str) -> String {
    match args.get(at + 1) {
        Some(v) if !v.starts_with("--") => v.clone(),
        _ => {
            eprintln!("error: {flag} needs {what}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut profile = EffortProfile::Smoke;
    let mut quiet = false;
    let mut cache_flag: Option<String> = None;
    let mut resume_flag: Option<String> = None;
    let mut distributed: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "paper" => profile = EffortProfile::Paper,
            "smoke" => profile = EffortProfile::Smoke,
            "--quiet" => quiet = true,
            "--distributed" => {
                // Optional worker count (default 2).
                distributed = Some(
                    match args.get(i + 1).and_then(|v| v.parse::<usize>().ok()) {
                        Some(n) if n > 0 => {
                            i += 1;
                            n
                        }
                        _ => 2,
                    },
                );
            }
            "--cache" => {
                cache_flag = Some(flag_value(&args, i, "--cache", "a directory"));
                i += 1;
            }
            "--resume" => {
                resume_flag = Some(flag_value(&args, i, "--resume", "a journal path"));
                i += 1;
            }
            "--jobs" => {
                let jobs = args
                    .get(i + 1)
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| {
                        eprintln!("error: --jobs needs a positive integer");
                        std::process::exit(2);
                    });
                // Single-threaded startup: set before any pool spins up so
                // the campaign engine and every inner config pick it up.
                std::env::set_var("SEA_JOBS", jobs.to_string());
                i += 1;
            }
            other => {
                eprintln!(
                    "error: unknown argument `{other}` \
                     (smoke|paper [--jobs N] [--quiet] [--cache <dir>] [--resume <journal>] \
                     [--distributed [N]])"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }
    // Run metadata goes to stderr (house rule: progress/metadata on stderr,
    // report on stdout) so the report bytes are identical for every --jobs.
    eprintln!("profile: {profile:?}, jobs: {}\n", sea_opt::default_jobs());
    let t0 = Instant::now();

    // Fig. 3 — mapping study (pure evaluation sweep; runs inline).
    let fig3 = fig3::run(120, 42).expect("Fig. 3 sweep");
    let s = fig3.summary();
    println!("## Fig. 3 (120 random mappings, 4 cores)");
    println!(
        "corr(TM, R)            = {:+.3}   (paper: negative trade-off)",
        s.corr_tm_r
    );
    println!(
        "Gamma ratio s2/s1      = {:.2}    (paper: ~2.5x)",
        s.gamma_ratio
    );
    println!("TM ratio s2/s1         = {:.2}    (paper: ~2x)", s.tm_ratio);
    println!(
        "Gamma concavity edges  = {:.2} / {:.2} over the minimum (paper: concave)\n",
        s.gamma_edge_over_min_low, s.gamma_edge_over_min_high
    );

    // One merged campaign: every remaining table and figure as units.
    let mpeg2 = Arc::new(sea_taskgraph::mpeg2::application());
    let app60 = Arc::new(
        sea_taskgraph::generator::RandomGraphConfig::paper(60)
            .generate(profile.seed())
            .expect("valid generator parameters"),
    );
    let t3_workloads = table3::paper_workloads(profile.seed());
    let t3_cores = [2usize, 3, 4, 5, 6];
    let (ref_app, _, ref_mapping, ref_scaling) = reference_design();
    let ref_app = Arc::new(ref_app);
    let mc_designs = vec![(
        "Exp:4 (proposed)".to_string(),
        ref_mapping.clone(),
        ref_scaling.clone(),
    )];

    let (units, ranges) = campaigns::merge(vec![
        table2::units_on(&mpeg2, profile, 4),
        table3::units_on(&t3_workloads, &t3_cores, profile),
        fig10::units_on(&app60, &t3_cores, profile),
        fig11::units_on(&app60, 6, profile),
        mc_units(&ref_app, &mc_designs, 3, 13),
    ]);
    let mut progress = StderrProgress {
        total: 0,
        done: 0,
        enabled: !quiet,
    };
    let cache = Cache::resolve(cache_flag.as_deref()).unwrap_or_else(|e| {
        eprintln!("error: cannot open the result cache: {e}");
        std::process::exit(2);
    });
    let mut plan = resume_flag.as_ref().map(|path| {
        open_journal(std::path::Path::new(path), "reproduce", &units).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    });
    let mut config = RunConfig::new(sea_opt::default_jobs());
    config.cache = cache.as_ref();
    let journaled = plan.is_some();
    if let Some(mut plan) = plan.take() {
        if !quiet && plan.resumed > 0 {
            eprintln!(
                "resume: {} of {} units journaled",
                plan.resumed,
                units.len()
            );
        }
        config.prefilled = std::mem::take(&mut plan.prefilled);
        config.journal = Some(plan.writer);
    }
    let (results, stats) = match distributed {
        Some(workers) => {
            if !quiet {
                eprintln!("distributed: localhost coordinator + {workers} TCP worker(s)");
            }
            campaigns::run_configured_distributed(&units, config, &mut progress, workers)
                .expect("distributed campaign run")
        }
        None => campaigns::run_configured(&units, config, &mut progress).expect("campaign run"),
    };
    if !quiet && (cache.is_some() || journaled || stats.deduped > 0) {
        eprintln!(
            "units: {} evaluated, {} cache hit(s), {} deduped, {} journaled",
            stats.executed, stats.cache_hits, stats.deduped, stats.resumed
        );
    }

    // Table II + Fig. 9.
    let t2 = table2::from_results(&results[ranges[0].clone()]).expect("Table II");
    println!("{}", t2.to_table().to_ascii());
    let violations = t2.shape_violations();
    if violations.is_empty() {
        println!("shape: all Table II orderings reproduced\n");
    } else {
        println!("shape violations: {violations:?}\n");
    }
    let f9 = fig9::from_table2(&t2).expect("Fig. 9");
    println!("{}", f9.to_table().to_ascii());

    // Table III.
    let t3 = table3::from_results(&t3_workloads, &t3_cores, &results[ranges[1].clone()]);
    println!("{}", t3.to_table().to_ascii());
    for (label, monotone, total) in t3.gamma_monotonicity() {
        println!("Gamma growth with cores [{label}]: {monotone}/{total} steps monotone");
    }
    println!();

    // Fig. 10.
    let f10 = fig10::from_results(&t3_cores, &results[ranges[2].clone()]);
    println!("{}", f10.to_table().to_ascii());
    println!(
        "proposed Gamma win rate vs Exp:3: {:.0}%\n",
        f10.proposed_win_rate() * 100.0
    );

    // Fig. 11.
    let f11 = fig11::from_results(&results[ranges[3].clone()]).expect("Fig. 11");
    println!("{}", f11.to_table().to_ascii());
    // The Fig. 11 3-level unit already optimized the reference design.
    let iso = results[ranges[3].start + 1]
        .payload
        .require_design()
        .and_then(|reference| fig11::level_isolation_from(&app60, 6, &reference.best))
        .expect("level isolation");
    println!("fixed-mapping level isolation (busy-cycle accounting):");
    for (levels, p, g) in &iso {
        println!("  {levels} levels: P = {p:.2} mW, Gamma = {g:.3e}");
    }
    println!();

    // Ablations.
    let (app, arch, mapping, scaling) = reference_design();
    let exp = exposure_ablation(&app, &arch, &mapping, &scaling).expect("exposure ablation");
    println!("## Ablations (reference design: Table II Exp:4)");
    println!(
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
    println!(
        "seeding:  search from SEA seed -> Gamma {:.3e}; from balanced seed -> {:.3e}; raw SEA seed {:.3e}",
        seed_ab.gamma_from_sea_seed, seed_ab.gamma_from_balanced_seed, seed_ab.gamma_sea_seed_raw
    );
    let sens =
        ser_sensitivity(&app, &arch, &mapping, &scaling, &[1e-10, 1e-9, 1e-8]).expect("SER sweep");
    print!("SER sweep: ");
    for (ser, gamma) in &sens {
        print!("lambda={ser:.0e} -> Gamma={gamma:.2e}  ");
    }
    println!();
    let mc = mc_from_results(&mc_designs, &results[ranges[4].clone()]);
    println!("{}", mc_table(&mc).to_ascii());

    // Stderr, not stdout: stdout must be byte-identical across runs (the
    // warm-cache acceptance check `cmp`s it), and wall time never is.
    eprintln!("total wall time: {:.1} s", t0.elapsed().as_secs_f64());
}
