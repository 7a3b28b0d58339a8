//! Figure 4(d): multi-window mining, one worker vs. many.
//!
//! Usage: `fig4d [threads] [size ...]` (defaults: all cores, sizes
//! 500/1000/2000/3000 — pass smaller sizes for a quick run).

use wiclean_eval::runtime::{fig4d, render_parallel};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let threads: usize = args.first().map_or_else(
        || {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(16)
        },
        |a| a.parse().expect("thread count"),
    );
    let sizes: Vec<usize> = args[1.min(args.len())..]
        .iter()
        .map(|a| a.parse().expect("sizes must be integers"))
        .collect();
    let sizes = if sizes.is_empty() {
        vec![500, 1000, 2000, 3000]
    } else {
        sizes
    };
    eprintln!("Figure 4(d): all-window mining, 1 vs {threads} threads, sizes {sizes:?}");
    let rows = fig4d(&sizes, threads, 0x41D);
    println!("{}", render_parallel(&rows));
}
