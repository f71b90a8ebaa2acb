pub(crate) fn call(l: &a::Local) -> u32 {
    a::used();
    let _ = a::make();
    l.get()
}
