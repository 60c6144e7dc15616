//! Binary wrapper; the logic lives in `occache_cli::sweep_cmd`.

fn main() {
    occache_runtime::interrupt::install();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match occache_cli::sweep_cmd::run(&argv) {
        Ok(report) => {
            print!("{report}");
            if occache_runtime::interrupt::requested() {
                eprintln!("sweep interrupted; partial results reported above");
                std::process::exit(i32::from(occache_runtime::interrupt::EXIT_INTERRUPTED));
            }
        }
        Err(e) => {
            eprintln!("{e}");
            eprintln!("\n{}", occache_cli::sweep_cmd::USAGE);
            std::process::exit(2);
        }
    }
}
