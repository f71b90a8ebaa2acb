// Calls own_crate; mentions only_in_comment.
pub(crate) fn call() -> &'static str {
    crate::own_crate();
    crate::restricted();
    "only_in_string"
}
