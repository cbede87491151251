//! The untraced benchmark: system allocator, no spans; prints the
//! end-to-end metrics. See `README.md` in the package directory.

fn main() {
    std::process::exit(dgf_perfbench::main_with(false));
}
