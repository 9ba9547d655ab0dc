//! `perfbench <workload> --seed N --seconds S --trace 0|1 [--sync] [--tiny]`
//!
//! Prints a table of every metric and check, then one `@result {json}`
//! line. `run.py` is the intended caller (it passes `--sync` and times
//! the phase markers); see `README.md`.

use perfbench::report::Marks;

/// Allocation counting for `alloc.*` and `retained_bytes_per_entity`,
/// the same allocator `repro` installs.
#[global_allocator]
static ALLOC: nb_bench::codec::CountingAlloc = nb_bench::codec::CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cfg, sync) = match perfbench::parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut marks = Marks::new(sync);
    let report = perfbench::run(&cfg, &mut marks);
    print!("{}", report.render());
    println!("@result {}", report.to_json());
}
