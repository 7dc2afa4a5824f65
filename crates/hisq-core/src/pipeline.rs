//! Classical-pipeline building blocks: register file and data memory.

use hisq_isa::Reg;

/// The 32-entry RV32I register file with `x0` hard-wired to zero.
///
/// # Example
///
/// ```
/// use hisq_core::RegFile;
/// use hisq_isa::Reg;
///
/// let mut regs = RegFile::new();
/// regs.write(Reg::new(5).unwrap(), 42);
/// assert_eq!(regs.read(Reg::new(5).unwrap()), 42);
/// regs.write(Reg::X0, 99); // silently discarded
/// assert_eq!(regs.read(Reg::X0), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegFile {
    regs: [u32; 32],
}

impl RegFile {
    /// All-zero register file.
    pub fn new() -> RegFile {
        RegFile { regs: [0; 32] }
    }

    /// Reads a register (`x0` always reads 0).
    pub fn read(&self, reg: Reg) -> u32 {
        self.regs[reg.index()]
    }

    /// Writes a register; writes to `x0` are discarded.
    pub fn write(&mut self, reg: Reg, value: u32) {
        if reg.index() != 0 {
            self.regs[reg.index()] = value;
        }
    }
}

impl Default for RegFile {
    fn default() -> RegFile {
        RegFile::new()
    }
}

/// Byte-addressed little-endian data memory with bounds checking.
///
/// The buffer is allocated on the first store: until then every load
/// reads zero, so a controller whose program never stores costs no
/// heap memory. Bounds are checked against `len` either way, so faults
/// do not depend on whether the buffer exists yet. Equality compares
/// contents, so a never-stored memory equals one that stored zeros.
#[derive(Debug, Clone)]
pub struct Memory {
    len: usize,
    /// Empty until the first store, then exactly `len` bytes.
    bytes: Vec<u8>,
}

/// An out-of-bounds access fault raised by [`Memory`] operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemFault {
    /// The faulting byte address.
    pub addr: u32,
    /// Access width in bytes.
    pub width: u32,
}

impl std::fmt::Display for MemFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "memory access of {} byte(s) at address {:#x} out of bounds",
            self.width, self.addr
        )
    }
}

impl std::error::Error for MemFault {}

impl Memory {
    /// Creates a zero-initialized memory of `bytes` bytes.
    pub fn new(bytes: usize) -> Memory {
        Memory {
            len: bytes,
            bytes: Vec::new(),
        }
    }

    /// Memory size in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the memory has zero size.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn check(&self, addr: u32, width: u32) -> Result<usize, MemFault> {
        let end = addr as u64 + u64::from(width);
        if end > self.len as u64 {
            return Err(MemFault { addr, width });
        }
        Ok(addr as usize)
    }

    /// Loads `width` ∈ {1,2,4} bytes little-endian (zero-extended).
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] on out-of-bounds access.
    pub fn load(&self, addr: u32, width: u32) -> Result<u32, MemFault> {
        let base = self.check(addr, width)?;
        let Some(bytes) = self.bytes.get(base..base + width as usize) else {
            return Ok(0);
        };
        let mut value = 0u32;
        for (i, &byte) in bytes.iter().enumerate() {
            value |= u32::from(byte) << (8 * i);
        }
        Ok(value)
    }

    /// Stores the low `width` ∈ {1,2,4} bytes of `value` little-endian.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] on out-of-bounds access.
    pub fn store(&mut self, addr: u32, width: u32, value: u32) -> Result<(), MemFault> {
        let base = self.check(addr, width)?;
        if self.bytes.is_empty() {
            self.bytes = vec![0; self.len];
        }
        for i in 0..width as usize {
            self.bytes[base + i] = (value >> (8 * i)) as u8;
        }
        Ok(())
    }
}

impl PartialEq for Memory {
    fn eq(&self, other: &Memory) -> bool {
        // A missing buffer reads as all zeros.
        let zeros = |bytes: &[u8]| bytes.iter().all(|&b| b == 0);
        self.len == other.len
            && match (self.bytes.is_empty(), other.bytes.is_empty()) {
                (false, false) => self.bytes == other.bytes,
                _ => zeros(&self.bytes) && zeros(&other.bytes),
            }
    }
}

impl Eq for Memory {}

/// Sign-extends the low `bits` bits of `value` to 32 bits.
pub fn sign_extend(value: u32, bits: u32) -> u32 {
    let shift = 32 - bits;
    (((value << shift) as i32) >> shift) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x0_is_hardwired_zero() {
        let mut regs = RegFile::new();
        regs.write(Reg::X0, 0xdead_beef);
        assert_eq!(regs.read(Reg::X0), 0);
    }

    #[test]
    fn memory_little_endian_round_trip() {
        let mut mem = Memory::new(16);
        mem.store(4, 4, 0x1234_5678).unwrap();
        assert_eq!(mem.load(4, 4).unwrap(), 0x1234_5678);
        assert_eq!(mem.load(4, 1).unwrap(), 0x78);
        assert_eq!(mem.load(5, 1).unwrap(), 0x56);
        assert_eq!(mem.load(4, 2).unwrap(), 0x5678);
    }

    #[test]
    fn memory_bounds_checked() {
        let mut mem = Memory::new(8);
        assert!(mem.load(5, 4).is_err());
        assert!(mem.store(8, 1, 0).is_err());
        assert!(mem.load(4, 4).is_ok());
        // Address arithmetic must not overflow.
        assert!(mem.load(u32::MAX, 4).is_err());
    }

    #[test]
    fn untouched_memory_reads_zero_at_every_width() {
        let mem = Memory::new(16);
        for width in [1u32, 2, 4] {
            for addr in 0..=(16 - width) {
                assert_eq!(mem.load(addr, width), Ok(0), "addr={addr} width={width}");
            }
        }
    }

    #[test]
    fn faults_do_not_depend_on_the_first_store() {
        let probes = [
            (15u32, 1u32),
            (15, 2),
            (13, 4),
            (16, 1),
            (u32::MAX, 1),
            (u32::MAX, 4),
        ];
        let outcomes = |mem: &Memory| -> Vec<Result<u32, MemFault>> {
            probes.iter().map(|&(a, w)| mem.load(a, w)).collect()
        };
        let mut mem = Memory::new(16);
        let before = outcomes(&mem);
        assert_eq!(before[0], Ok(0), "the last valid byte loads");
        assert_eq!(before[3], Err(MemFault { addr: 16, width: 1 }));
        assert_eq!(
            before[5],
            Err(MemFault {
                addr: u32::MAX,
                width: 4
            })
        );
        assert_eq!(mem.store(16, 1, 7), Err(MemFault { addr: 16, width: 1 }));
        assert_eq!(
            mem.store(u32::MAX, 4, 7),
            Err(MemFault {
                addr: u32::MAX,
                width: 4
            })
        );
        assert!(mem.bytes.is_empty(), "a faulting store allocates nothing");
        mem.store(0, 1, 0).unwrap();
        assert_eq!(outcomes(&mem), before);
    }

    #[test]
    fn never_stored_memory_holds_no_buffer() {
        let mut mem = Memory::new(crate::NodeConfig::DEFAULT_MEM_BYTES);
        mem.load(0, 4).unwrap();
        assert!(mem.bytes.is_empty());
        assert_eq!(mem.len(), crate::NodeConfig::DEFAULT_MEM_BYTES);
        mem.store(8, 2, 1).unwrap();
        assert_eq!(mem.bytes.len(), crate::NodeConfig::DEFAULT_MEM_BYTES);
    }

    #[test]
    fn last_valid_word_round_trips() {
        let mut mem = Memory::new(16);
        mem.store(12, 4, 0xdead_beef).unwrap();
        assert_eq!(mem.load(12, 4), Ok(0xdead_beef));
        assert_eq!(mem.load(15, 1), Ok(0xde));
        assert_eq!(mem.load(0, 4), Ok(0));
    }

    #[test]
    fn memory_equality_is_by_content() {
        let untouched = Memory::new(8);
        let mut zeroed = Memory::new(8);
        zeroed.store(4, 4, 0).unwrap();
        assert_eq!(untouched, zeroed);
        assert_eq!(zeroed, untouched);
        zeroed.store(4, 1, 1).unwrap();
        assert_ne!(untouched, zeroed);
        assert_ne!(zeroed, untouched);
        assert_ne!(Memory::new(8), Memory::new(16));
    }

    #[test]
    fn sign_extension() {
        assert_eq!(sign_extend(0xff, 8) as i32, -1);
        assert_eq!(sign_extend(0x7f, 8), 127);
        assert_eq!(sign_extend(0x8000, 16) as i32, -32768);
    }
}
