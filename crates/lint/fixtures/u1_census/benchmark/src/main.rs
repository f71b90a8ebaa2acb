fn main() {
    a::bench_only();
}
