//! `ssync-perfbench --workload <rx|joint|city> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run's metadata and notes as `#` lines, then one JSON result
//! line: `{"correct", "attempted", "failed", "metrics"}`.

use ssync_perfbench::{meta, parse_args, run, Size, USAGE};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&args, Size::Full);
    println!(
        "# meta {}",
        meta::json(args.workload.name(), args.seed, args.seconds, args.trace)
    );
    for note in &report.notes {
        println!("# {note}");
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}
