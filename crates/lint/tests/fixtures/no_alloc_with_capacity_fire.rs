pub fn drain(queued: &[u8], spans: &[(usize, u16)]) -> usize {
    let mut bytes: Vec<u8> = Vec::with_capacity(queued.len());
    let mut lens = Vec::with_capacity(spans.len());
    bytes.extend_from_slice(queued);
    lens.extend(spans.iter().map(|s| s.0));
    bytes.len() + lens.len()
}

pub fn capacity_is_not_a_constructor(v: &Vec<u8>) -> usize {
    v.capacity()
}
