// `read` is a parameter of `read_all`: `read(&mut r)` calls the
// closure it was given, not any function named `read`.
pub fn read_all<R>(data: &[u8], read: impl FnOnce(&mut ArgReader<'_>) -> Result<R>) -> Result<R> {
    let mut r = ArgReader::new(data);
    let value = read(&mut r)?;
    r.finish()?;
    Ok(value)
}

// The same through a `let`: `scan(data)` calls the closure.
pub fn count_all(data: &[u8]) -> usize {
    let scan = |d: &[u8]| d.len();
    scan(data)
}
