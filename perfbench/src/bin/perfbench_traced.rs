//! The traced benchmark: the counting allocator feeds the program's
//! per-phase allocation counts, and benchmark-side spans wrap every call
//! into a layer; prints the per-layer metrics. See `README.md` in the
//! package directory.

use datagridflows::obs::CountingAllocator;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn main() {
    std::process::exit(dgf_perfbench::main_with(true));
}
