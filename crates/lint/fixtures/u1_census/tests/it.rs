#[test]
fn calls_tested() {
    a::tested();
}
