//! `ssync-lab` — the unified experiment runner.
//!
//! Lists and runs any registered evaluation scenario by name:
//!
//! ```text
//! ssync-lab list
//! ssync-lab run fig12_sync_error --threads 8 --trials 4 --format json
//! ssync-lab run fig08_wait_lp --check golden/fig08.tsv
//! ssync-lab tier
//! ```
//!
//! `tier` prints the kernel tier this build dispatches on this host
//! (`avx512`, `avx2`, `lanes` or `scalar`; see `ssync_dsp::simd::tier`).
//!
//! Flags for `run`:
//!
//! * `--threads N` — worker count (default: `SSYNC_THREADS` env, else all
//!   cores). Output is byte-identical for every `N`.
//! * `--trials K` — trial multiplier. The flag wins over the
//!   `SSYNC_TRIALS` env (see `ssync_exp::resolve_trials`); a malformed
//!   flag is a hard error, never a silent fallback.
//! * `--format tsv|json` — serialization (default `tsv`).
//! * `--out FILE` — write to a file instead of stdout.
//! * `--check FILE` — golden-regression mode: compare the rendered output
//!   against `FILE`; exit 1 with a first-divergence diagnostic on mismatch.
//!   The output is written first, so a mismatch still leaves its bytes.
//! * `--trace FILE` — (observable scenarios only) write a Chrome
//!   trace-event JSON of the run, loadable in Perfetto as a per-node
//!   timeline. The normal rendered output is byte-identical with or
//!   without this flag.
//! * `--metrics FILE` — (observable scenarios only) write the folded
//!   metric-registry snapshot, serialized per `--format`.

use ssync_bench::scenarios;
use ssync_exp::{golden, resolve_trials, run_rendered, Format, RunConfig};
use ssync_obs::run_observed_rendered;

fn usage() -> ! {
    eprintln!(
        "usage:\n  ssync-lab list\n  ssync-lab tier\n  ssync-lab run <scenario> [--threads N] [--trials K] \
         [--format tsv|json] [--out FILE] [--check FILE] [--trace FILE] [--metrics FILE]\n\n\
         run `ssync-lab list` for scenario names"
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("ssync-lab: {msg}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            println!("{:<22} {:<18} description", "name", "paper");
            for s in scenarios::all() {
                println!("{:<22} {:<18} {}", s.name(), s.paper_ref(), s.title());
            }
        }
        Some("tier") => println!("{}", ssync_dsp::simd::tier().name()),
        Some("run") => run(&args[1..]),
        _ => usage(),
    }
}

fn run(args: &[String]) {
    let Some(name) = args.first().filter(|a| !a.starts_with("--")) else {
        usage();
    };
    let Some(scenario) = scenarios::find(name) else {
        fail(&format!(
            "unknown scenario {name:?}; run `ssync-lab list` for the registry"
        ));
    };

    let mut cfg = RunConfig::from_env();
    let mut trials_flag: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| -> String {
            it.next()
                .unwrap_or_else(|| fail(&format!("{what} expects a value")))
                .clone()
        };
        match flag.as_str() {
            "--threads" => {
                cfg.threads = value("--threads")
                    .parse()
                    .unwrap_or_else(|_| fail("--threads expects an integer"));
            }
            "--trials" => trials_flag = Some(value("--trials")),
            "--format" => {
                cfg.format = Format::parse(&value("--format"))
                    .unwrap_or_else(|| fail("--format expects `tsv` or `json`"));
            }
            "--out" => out_path = Some(value("--out")),
            "--check" => check_path = Some(value("--check")),
            "--trace" => trace_path = Some(value("--trace")),
            "--metrics" => metrics_path = Some(value("--metrics")),
            other => fail(&format!("unknown flag {other:?}")),
        }
    }
    // The flag beats the environment; a malformed flag fails loudly
    // rather than silently running the wrong number of trials.
    cfg.trials_scale = resolve_trials(
        trials_flag.as_deref(),
        std::env::var("SSYNC_TRIALS").ok().as_deref(),
    )
    .unwrap_or_else(|e| fail(&e));

    let rendered = if trace_path.is_some() || metrics_path.is_some() {
        let Some(observable) = scenarios::find_observable(name) else {
            let names: Vec<&str> = scenarios::observable().iter().map(|s| s.name()).collect();
            fail(&format!(
                "scenario {name:?} does not support --trace/--metrics \
                 (observable scenarios: {})",
                names.join(", ")
            ));
        };
        let (rendered, obs) = run_observed_rendered(observable, &cfg);
        if let Some(path) = &trace_path {
            std::fs::write(path, obs.chrome_trace_json())
                .unwrap_or_else(|e| fail(&format!("cannot write trace {path:?}: {e}")));
        }
        if let Some(path) = &metrics_path {
            let snapshot = obs.metrics_snapshot();
            let serialized = match cfg.format {
                Format::Tsv => ssync_exp::sink::render_tsv(&snapshot),
                Format::Json => ssync_exp::sink::render_json("metrics", &snapshot),
            };
            std::fs::write(path, serialized)
                .unwrap_or_else(|e| fail(&format!("cannot write metrics {path:?}: {e}")));
        }
        rendered
    } else {
        run_rendered(scenario, &cfg)
    };

    // Write before checking, so a golden mismatch leaves the diverging
    // bytes behind.
    match &out_path {
        Some(path) => std::fs::write(path, &rendered)
            .unwrap_or_else(|e| fail(&format!("cannot write {path:?}: {e}"))),
        None => print!("{rendered}"),
    }

    if let Some(path) = &check_path {
        let expected = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("cannot read golden file {path:?}: {e}")));
        if let Err(diff) = golden::compare(&expected, &rendered) {
            eprintln!("ssync-lab: golden mismatch for {name} vs {path}: {diff}");
            std::process::exit(1);
        }
        eprintln!("ssync-lab: {name} matches golden {path}");
    }
}
