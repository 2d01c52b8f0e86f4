//! Buffers that start on a cache line.

/// Bytes in a cache line: no 64-byte row of an operand that starts on one
/// straddles two.
pub const CACHE_LINE: usize = 64;

/// Empties `buf` up to its first index `start` on a [`CACHE_LINE`]
/// boundary (the elements before it are padding) and returns `start`, with
/// room to push `len` elements from there without moving. An allocation
/// that fits is kept; otherwise `buf` grows by `len` plus a line of slack.
/// Only speed depends on the boundary.
pub fn align_start<T: Copy + Default>(buf: &mut Vec<T>, len: usize) -> usize {
    let slack = (CACHE_LINE / std::mem::size_of::<T>().max(1)).max(1);
    // A real offset is below `slack`; `% slack` keeps any other in bounds.
    let offset = |buf: &Vec<T>| buf.as_ptr().align_offset(CACHE_LINE) % slack;
    buf.clear();
    if offset(buf) + len > buf.capacity() {
        buf.reserve(len + slack);
    }
    let start = offset(buf);
    buf.resize(start, T::default());
    start
}

#[cfg(test)]
mod tests {
    use super::*;

    fn on_line<T>(s: &[T]) -> bool {
        s.as_ptr().addr().is_multiple_of(CACHE_LINE)
    }

    #[test]
    fn region_starts_on_a_line_and_fits_without_moving() {
        for len in [0, 1, 63, 64, 65, 4096] {
            let mut bytes = Vec::<i8>::new();
            let start = align_start(&mut bytes, len);
            assert_eq!(bytes.len(), start);
            bytes.resize(start + len, 7);
            assert!(on_line(&bytes[start..]), "i8 len {len}");
            let mut floats = vec![1.0f32; 3];
            let start = align_start(&mut floats, len);
            let before = floats.as_ptr();
            floats.extend(std::iter::repeat_n(2.0, len));
            assert_eq!(floats.as_ptr(), before, "f32 len {len} moved");
            assert!(on_line(&floats[start..]), "f32 len {len}");
        }
    }

    #[test]
    fn a_region_that_fits_keeps_its_allocation() {
        let mut buf = Vec::<i8>::new();
        align_start(&mut buf, 1000);
        let ptr = buf.as_ptr();
        for len in [1000, 10, 999] {
            let start = align_start(&mut buf, len);
            assert_eq!(buf.as_ptr(), ptr);
            assert!(on_line(&buf[start..]));
        }
    }
}
