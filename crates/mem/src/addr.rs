//! Addresses and cache-line geometry.

/// A physical byte address in the simulated machine.
pub type Addr = u64;

/// Cache line size in bytes. Rocket Chip's L1 data cache uses 64-byte lines, and the paper's
/// Phentos runtime sizes its task-metadata elements to exactly one or two such lines.
pub const LINE_SIZE: u64 = 64;

/// Returns the cache-line index containing `addr`.
pub fn line_of(addr: Addr) -> u64 {
    addr / LINE_SIZE
}

/// Returns the distinct cache lines an access of `bytes` bytes at `addr` touches, in order. A
/// zero-byte access touches the line containing `addr`.
pub fn line_range(addr: Addr, bytes: u64) -> std::ops::RangeInclusive<u64> {
    line_of(addr)..=line_of(addr + bytes.max(1) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_size_is_power_of_two() {
        assert!(LINE_SIZE.is_power_of_two());
        assert_eq!(LINE_SIZE, 64);
    }

    #[test]
    fn line_of_and_base() {
        assert_eq!(line_of(0), 0);
        assert_eq!(line_of(63), 0);
        assert_eq!(line_of(64), 1);
    }

    #[test]
    fn line_range_spans() {
        let lines = |addr, bytes| line_range(addr, bytes).collect::<Vec<_>>();
        assert_eq!(lines(0, 1), vec![0]);
        assert_eq!(lines(0, 64), vec![0]);
        assert_eq!(lines(0, 65), vec![0, 1]);
        assert_eq!(lines(60, 8), vec![0, 1]);
        assert_eq!(lines(128, 0), vec![2]);
        assert_eq!(lines(0, 256), vec![0, 1, 2, 3]);
    }
}
