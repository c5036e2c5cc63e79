//! The DTU-RISC instruction set.
//!
//! A compact 32-bit in-order RISC, standing in for the iDEA soft-processor
//! ISA the paper's second design example implements (the paper uses the
//! ISA only as a workload generator for the MEB pipeline; see DESIGN.md).
//! MIPS-like encoding: `opcode[31:26] rs[25:21] rt[20:16] rd[15:11]
//! shamt[10:6] funct[5:0]` for R-type, 16-bit immediates for I-type and a
//! 26-bit absolute target for J-type. PCs and memory are word-addressed.
//!
//! One extension supports multithreaded programs directly: `tid rd` reads
//! the hardware thread id, letting all threads share one binary while
//! operating on per-thread data regions.

/// Number of architectural registers per thread (`r0` is hard-wired to 0).
pub const NUM_REGS: usize = 32;

/// A decoded DTU-RISC instruction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Instr {
    /// `rd = rs + rt` (wrapping).
    Add {
        /// Destination register.
        rd: u8,
        /// First source.
        rs: u8,
        /// Second source.
        rt: u8,
    },
    /// `rd = rs - rt` (wrapping).
    Sub {
        /// Destination register.
        rd: u8,
        /// First source.
        rs: u8,
        /// Second source.
        rt: u8,
    },
    /// `rd = rs & rt`.
    And {
        /// Destination register.
        rd: u8,
        /// First source.
        rs: u8,
        /// Second source.
        rt: u8,
    },
    /// `rd = rs | rt`.
    Or {
        /// Destination register.
        rd: u8,
        /// First source.
        rs: u8,
        /// Second source.
        rt: u8,
    },
    /// `rd = rs ^ rt`.
    Xor {
        /// Destination register.
        rd: u8,
        /// First source.
        rs: u8,
        /// Second source.
        rt: u8,
    },
    /// `rd = !(rs | rt)`.
    Nor {
        /// Destination register.
        rd: u8,
        /// First source.
        rs: u8,
        /// Second source.
        rt: u8,
    },
    /// `rd = (rs as i32) < (rt as i32)`.
    Slt {
        /// Destination register.
        rd: u8,
        /// First source.
        rs: u8,
        /// Second source.
        rt: u8,
    },
    /// `rd = rs < rt` (unsigned).
    Sltu {
        /// Destination register.
        rd: u8,
        /// First source.
        rs: u8,
        /// Second source.
        rt: u8,
    },
    /// `rd = rs * rt` (wrapping; executed on the long-latency multiplier).
    Mul {
        /// Destination register.
        rd: u8,
        /// First source.
        rs: u8,
        /// Second source.
        rt: u8,
    },
    /// `rd = rt << shamt`.
    Sll {
        /// Destination register.
        rd: u8,
        /// Source.
        rt: u8,
        /// Shift amount (0–31).
        shamt: u8,
    },
    /// `rd = rt >> shamt` (logical).
    Srl {
        /// Destination register.
        rd: u8,
        /// Source.
        rt: u8,
        /// Shift amount (0–31).
        shamt: u8,
    },
    /// `rd = (rt as i32) >> shamt` (arithmetic).
    Sra {
        /// Destination register.
        rd: u8,
        /// Source.
        rt: u8,
        /// Shift amount (0–31).
        shamt: u8,
    },
    /// Jump to the address in `rs`.
    Jr {
        /// Register holding the target PC.
        rs: u8,
    },
    /// `rd = hardware thread id` (DTU-RISC extension).
    Tid {
        /// Destination register.
        rd: u8,
    },
    /// `rt = rs + sext(imm)`.
    Addi {
        /// Destination register.
        rt: u8,
        /// Source.
        rs: u8,
        /// Sign-extended immediate.
        imm: i16,
    },
    /// `rt = rs & zext(imm)`.
    Andi {
        /// Destination register.
        rt: u8,
        /// Source.
        rs: u8,
        /// Zero-extended immediate.
        imm: u16,
    },
    /// `rt = rs | zext(imm)`.
    Ori {
        /// Destination register.
        rt: u8,
        /// Source.
        rs: u8,
        /// Zero-extended immediate.
        imm: u16,
    },
    /// `rt = rs ^ zext(imm)`.
    Xori {
        /// Destination register.
        rt: u8,
        /// Source.
        rs: u8,
        /// Zero-extended immediate.
        imm: u16,
    },
    /// `rt = (rs as i32 < imm as i32)`.
    Slti {
        /// Destination register.
        rt: u8,
        /// Source.
        rs: u8,
        /// Sign-extended immediate.
        imm: i16,
    },
    /// `rt = imm << 16`.
    Lui {
        /// Destination register.
        rt: u8,
        /// Upper immediate.
        imm: u16,
    },
    /// `rt = dmem[rs + sext(imm)]` (word-addressed).
    Lw {
        /// Destination register.
        rt: u8,
        /// Base register.
        rs: u8,
        /// Word offset.
        imm: i16,
    },
    /// `dmem[rs + sext(imm)] = rt` (word-addressed).
    Sw {
        /// Source register to store.
        rt: u8,
        /// Base register.
        rs: u8,
        /// Word offset.
        imm: i16,
    },
    /// Branch to `pc + 1 + imm` when `rs == rt`.
    Beq {
        /// First comparand.
        rs: u8,
        /// Second comparand.
        rt: u8,
        /// Relative word offset.
        imm: i16,
    },
    /// Branch to `pc + 1 + imm` when `rs != rt`.
    Bne {
        /// First comparand.
        rs: u8,
        /// Second comparand.
        rt: u8,
        /// Relative word offset.
        imm: i16,
    },
    /// Unconditional jump to the 26-bit absolute word address.
    J {
        /// Absolute target.
        target: u32,
    },
    /// Jump and link: `r31 = pc + 1`, then jump.
    Jal {
        /// Absolute target.
        target: u32,
    },
    /// Do nothing.
    Nop,
    /// Stop fetching for this thread.
    Halt,
}

/// Opcodes.
mod op {
    pub const RTYPE: u32 = 0x00;
    pub const J: u32 = 0x02;
    pub const JAL: u32 = 0x03;
    pub const BEQ: u32 = 0x04;
    pub const BNE: u32 = 0x05;
    pub const ADDI: u32 = 0x08;
    pub const SLTI: u32 = 0x0a;
    pub const ANDI: u32 = 0x0c;
    pub const ORI: u32 = 0x0d;
    pub const XORI: u32 = 0x0e;
    pub const LUI: u32 = 0x0f;
    pub const LW: u32 = 0x23;
    pub const SW: u32 = 0x2b;
    pub const HALT: u32 = 0x3f;
}

/// R-type function codes.
mod funct {
    pub const SLL: u32 = 0x00;
    pub const SRL: u32 = 0x02;
    pub const SRA: u32 = 0x03;
    pub const JR: u32 = 0x08;
    pub const TID: u32 = 0x0b;
    pub const MUL: u32 = 0x18;
    pub const ADD: u32 = 0x20;
    pub const SUB: u32 = 0x22;
    pub const AND: u32 = 0x24;
    pub const OR: u32 = 0x25;
    pub const XOR: u32 = 0x26;
    pub const NOR: u32 = 0x27;
    pub const SLT: u32 = 0x2a;
    pub const SLTU: u32 = 0x2b;
}

/// Error returned when a word does not decode to a DTU-RISC instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DecodeInstrError {
    /// The undecodable word.
    pub word: u32,
}

impl std::fmt::Display for DecodeInstrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "word {:#010x} is not a valid DTU-RISC instruction",
            self.word
        )
    }
}

impl std::error::Error for DecodeInstrError {}

impl Instr {
    /// Encodes the instruction into its 32-bit word.
    pub fn encode(self) -> u32 {
        let r = |rs: u8, rt: u8, rd: u8, shamt: u8, f: u32| {
            (u32::from(rs) << 21)
                | (u32::from(rt) << 16)
                | (u32::from(rd) << 11)
                | (u32::from(shamt) << 6)
                | f
        };
        let i = |opc: u32, rs: u8, rt: u8, imm: u16| {
            (opc << 26) | (u32::from(rs) << 21) | (u32::from(rt) << 16) | u32::from(imm)
        };
        match self {
            Instr::Add { rd, rs, rt } => r(rs, rt, rd, 0, funct::ADD),
            Instr::Sub { rd, rs, rt } => r(rs, rt, rd, 0, funct::SUB),
            Instr::And { rd, rs, rt } => r(rs, rt, rd, 0, funct::AND),
            Instr::Or { rd, rs, rt } => r(rs, rt, rd, 0, funct::OR),
            Instr::Xor { rd, rs, rt } => r(rs, rt, rd, 0, funct::XOR),
            Instr::Nor { rd, rs, rt } => r(rs, rt, rd, 0, funct::NOR),
            Instr::Slt { rd, rs, rt } => r(rs, rt, rd, 0, funct::SLT),
            Instr::Sltu { rd, rs, rt } => r(rs, rt, rd, 0, funct::SLTU),
            Instr::Mul { rd, rs, rt } => r(rs, rt, rd, 0, funct::MUL),
            Instr::Sll { rd, rt, shamt } => r(0, rt, rd, shamt, funct::SLL),
            Instr::Srl { rd, rt, shamt } => r(0, rt, rd, shamt, funct::SRL),
            Instr::Sra { rd, rt, shamt } => r(0, rt, rd, shamt, funct::SRA),
            Instr::Jr { rs } => r(rs, 0, 0, 0, funct::JR),
            Instr::Tid { rd } => r(0, 0, rd, 0, funct::TID),
            Instr::Addi { rt, rs, imm } => i(op::ADDI, rs, rt, imm as u16),
            Instr::Andi { rt, rs, imm } => i(op::ANDI, rs, rt, imm),
            Instr::Ori { rt, rs, imm } => i(op::ORI, rs, rt, imm),
            Instr::Xori { rt, rs, imm } => i(op::XORI, rs, rt, imm),
            Instr::Slti { rt, rs, imm } => i(op::SLTI, rs, rt, imm as u16),
            Instr::Lui { rt, imm } => i(op::LUI, 0, rt, imm),
            Instr::Lw { rt, rs, imm } => i(op::LW, rs, rt, imm as u16),
            Instr::Sw { rt, rs, imm } => i(op::SW, rs, rt, imm as u16),
            Instr::Beq { rs, rt, imm } => i(op::BEQ, rs, rt, imm as u16),
            Instr::Bne { rs, rt, imm } => i(op::BNE, rs, rt, imm as u16),
            Instr::J { target } => (op::J << 26) | (target & 0x03ff_ffff),
            Instr::Jal { target } => (op::JAL << 26) | (target & 0x03ff_ffff),
            Instr::Nop => 0,
            Instr::Halt => op::HALT << 26,
        }
    }

    /// Decodes a 32-bit word.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeInstrError`] for unknown opcodes or function codes.
    pub fn decode(word: u32) -> Result<Instr, DecodeInstrError> {
        let opc = word >> 26;
        let rs = ((word >> 21) & 0x1f) as u8;
        let rt = ((word >> 16) & 0x1f) as u8;
        let rd = ((word >> 11) & 0x1f) as u8;
        let shamt = ((word >> 6) & 0x1f) as u8;
        let imm_u = (word & 0xffff) as u16;
        let imm_s = imm_u as i16;
        let err = DecodeInstrError { word };
        Ok(match opc {
            op::RTYPE => match word & 0x3f {
                funct::SLL if word == 0 => Instr::Nop,
                funct::SLL => Instr::Sll { rd, rt, shamt },
                funct::SRL => Instr::Srl { rd, rt, shamt },
                funct::SRA => Instr::Sra { rd, rt, shamt },
                funct::JR => Instr::Jr { rs },
                funct::TID => Instr::Tid { rd },
                funct::MUL => Instr::Mul { rd, rs, rt },
                funct::ADD => Instr::Add { rd, rs, rt },
                funct::SUB => Instr::Sub { rd, rs, rt },
                funct::AND => Instr::And { rd, rs, rt },
                funct::OR => Instr::Or { rd, rs, rt },
                funct::XOR => Instr::Xor { rd, rs, rt },
                funct::NOR => Instr::Nor { rd, rs, rt },
                funct::SLT => Instr::Slt { rd, rs, rt },
                funct::SLTU => Instr::Sltu { rd, rs, rt },
                _ => return Err(err),
            },
            op::J => Instr::J {
                target: word & 0x03ff_ffff,
            },
            op::JAL => Instr::Jal {
                target: word & 0x03ff_ffff,
            },
            op::BEQ => Instr::Beq { rs, rt, imm: imm_s },
            op::BNE => Instr::Bne { rs, rt, imm: imm_s },
            op::ADDI => Instr::Addi { rt, rs, imm: imm_s },
            op::SLTI => Instr::Slti { rt, rs, imm: imm_s },
            op::ANDI => Instr::Andi { rt, rs, imm: imm_u },
            op::ORI => Instr::Ori { rt, rs, imm: imm_u },
            op::XORI => Instr::Xori { rt, rs, imm: imm_u },
            op::LUI => Instr::Lui { rt, imm: imm_u },
            op::LW => Instr::Lw { rt, rs, imm: imm_s },
            op::SW => Instr::Sw { rt, rs, imm: imm_s },
            op::HALT => Instr::Halt,
            _ => return Err(err),
        })
    }

    /// Source registers this instruction reads (allocation-free).
    pub fn sources(&self) -> impl Iterator<Item = u8> {
        let (first, second) = match *self {
            Instr::Add { rs, rt, .. }
            | Instr::Sub { rs, rt, .. }
            | Instr::And { rs, rt, .. }
            | Instr::Or { rs, rt, .. }
            | Instr::Xor { rs, rt, .. }
            | Instr::Nor { rs, rt, .. }
            | Instr::Slt { rs, rt, .. }
            | Instr::Sltu { rs, rt, .. }
            | Instr::Mul { rs, rt, .. }
            | Instr::Beq { rs, rt, .. }
            | Instr::Bne { rs, rt, .. }
            | Instr::Sw { rs, rt, .. } => (Some(rs), Some(rt)),
            Instr::Sll { rt, .. } | Instr::Srl { rt, .. } | Instr::Sra { rt, .. } => {
                (Some(rt), None)
            }
            Instr::Jr { rs }
            | Instr::Addi { rs, .. }
            | Instr::Andi { rs, .. }
            | Instr::Ori { rs, .. }
            | Instr::Xori { rs, .. }
            | Instr::Slti { rs, .. }
            | Instr::Lw { rs, .. } => (Some(rs), None),
            Instr::Lui { .. }
            | Instr::Tid { .. }
            | Instr::J { .. }
            | Instr::Jal { .. }
            | Instr::Nop
            | Instr::Halt => (None, None),
        };
        first.into_iter().chain(second)
    }

    /// The registers this instruction reads or writes as a bitmask (bit
    /// `r` = register `r`): a scoreboard hazard check is one AND against
    /// the thread's busy-register mask.
    pub fn reg_mask(&self) -> u32 {
        self.sources()
            .chain(self.dest())
            .fold(0, |mask, r| mask | 1 << r)
    }

    /// The register this instruction writes, if any (`r0` writes are
    /// discarded but still reported here; the register file ignores them).
    pub fn dest(&self) -> Option<u8> {
        match *self {
            Instr::Add { rd, .. }
            | Instr::Sub { rd, .. }
            | Instr::And { rd, .. }
            | Instr::Or { rd, .. }
            | Instr::Xor { rd, .. }
            | Instr::Nor { rd, .. }
            | Instr::Slt { rd, .. }
            | Instr::Sltu { rd, .. }
            | Instr::Mul { rd, .. }
            | Instr::Sll { rd, .. }
            | Instr::Srl { rd, .. }
            | Instr::Sra { rd, .. }
            | Instr::Tid { rd } => Some(rd),
            Instr::Addi { rt, .. }
            | Instr::Andi { rt, .. }
            | Instr::Ori { rt, .. }
            | Instr::Xori { rt, .. }
            | Instr::Slti { rt, .. }
            | Instr::Lui { rt, .. }
            | Instr::Lw { rt, .. } => Some(rt),
            Instr::Jal { .. } => Some(31),
            _ => None,
        }
    }

    /// Whether fetch must stall this thread until the instruction resolves
    /// in execute (branches and indirect/direct jumps) or permanently
    /// (halt).
    pub fn is_control_flow(&self) -> bool {
        matches!(
            self,
            Instr::Beq { .. }
                | Instr::Bne { .. }
                | Instr::J { .. }
                | Instr::Jal { .. }
                | Instr::Jr { .. }
                | Instr::Halt
        )
    }

    /// Whether this instruction uses the long-latency multiplier.
    pub fn is_mul(&self) -> bool {
        matches!(self, Instr::Mul { .. })
    }
}

impl std::fmt::Display for Instr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Instr::Add { rd, rs, rt } => write!(f, "add r{rd}, r{rs}, r{rt}"),
            Instr::Sub { rd, rs, rt } => write!(f, "sub r{rd}, r{rs}, r{rt}"),
            Instr::And { rd, rs, rt } => write!(f, "and r{rd}, r{rs}, r{rt}"),
            Instr::Or { rd, rs, rt } => write!(f, "or r{rd}, r{rs}, r{rt}"),
            Instr::Xor { rd, rs, rt } => write!(f, "xor r{rd}, r{rs}, r{rt}"),
            Instr::Nor { rd, rs, rt } => write!(f, "nor r{rd}, r{rs}, r{rt}"),
            Instr::Slt { rd, rs, rt } => write!(f, "slt r{rd}, r{rs}, r{rt}"),
            Instr::Sltu { rd, rs, rt } => write!(f, "sltu r{rd}, r{rs}, r{rt}"),
            Instr::Mul { rd, rs, rt } => write!(f, "mul r{rd}, r{rs}, r{rt}"),
            Instr::Sll { rd, rt, shamt } => write!(f, "sll r{rd}, r{rt}, {shamt}"),
            Instr::Srl { rd, rt, shamt } => write!(f, "srl r{rd}, r{rt}, {shamt}"),
            Instr::Sra { rd, rt, shamt } => write!(f, "sra r{rd}, r{rt}, {shamt}"),
            Instr::Jr { rs } => write!(f, "jr r{rs}"),
            Instr::Tid { rd } => write!(f, "tid r{rd}"),
            Instr::Addi { rt, rs, imm } => write!(f, "addi r{rt}, r{rs}, {imm}"),
            Instr::Andi { rt, rs, imm } => write!(f, "andi r{rt}, r{rs}, {imm}"),
            Instr::Ori { rt, rs, imm } => write!(f, "ori r{rt}, r{rs}, {imm}"),
            Instr::Xori { rt, rs, imm } => write!(f, "xori r{rt}, r{rs}, {imm}"),
            Instr::Slti { rt, rs, imm } => write!(f, "slti r{rt}, r{rs}, {imm}"),
            Instr::Lui { rt, imm } => write!(f, "lui r{rt}, {imm}"),
            Instr::Lw { rt, rs, imm } => write!(f, "lw r{rt}, {imm}(r{rs})"),
            Instr::Sw { rt, rs, imm } => write!(f, "sw r{rt}, {imm}(r{rs})"),
            Instr::Beq { rs, rt, imm } => write!(f, "beq r{rs}, r{rt}, {imm}"),
            Instr::Bne { rs, rt, imm } => write!(f, "bne r{rs}, r{rt}, {imm}"),
            Instr::J { target } => write!(f, "j {target}"),
            Instr::Jal { target } => write!(f, "jal {target}"),
            Instr::Nop => write!(f, "nop"),
            Instr::Halt => write!(f, "halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_sample_instrs() -> Vec<Instr> {
        vec![
            Instr::Add {
                rd: 1,
                rs: 2,
                rt: 3,
            },
            Instr::Sub {
                rd: 31,
                rs: 0,
                rt: 15,
            },
            Instr::And {
                rd: 4,
                rs: 5,
                rt: 6,
            },
            Instr::Or {
                rd: 7,
                rs: 8,
                rt: 9,
            },
            Instr::Xor {
                rd: 10,
                rs: 11,
                rt: 12,
            },
            Instr::Nor {
                rd: 13,
                rs: 14,
                rt: 15,
            },
            Instr::Slt {
                rd: 16,
                rs: 17,
                rt: 18,
            },
            Instr::Sltu {
                rd: 19,
                rs: 20,
                rt: 21,
            },
            Instr::Mul {
                rd: 22,
                rs: 23,
                rt: 24,
            },
            Instr::Sll {
                rd: 25,
                rt: 26,
                shamt: 31,
            },
            Instr::Srl {
                rd: 27,
                rt: 28,
                shamt: 1,
            },
            Instr::Sra {
                rd: 29,
                rt: 30,
                shamt: 16,
            },
            Instr::Jr { rs: 31 },
            Instr::Tid { rd: 9 },
            Instr::Addi {
                rt: 1,
                rs: 2,
                imm: -32768,
            },
            Instr::Andi {
                rt: 3,
                rs: 4,
                imm: 0xffff,
            },
            Instr::Ori {
                rt: 5,
                rs: 6,
                imm: 0x1234,
            },
            Instr::Xori {
                rt: 7,
                rs: 8,
                imm: 1,
            },
            Instr::Slti {
                rt: 9,
                rs: 10,
                imm: -1,
            },
            Instr::Lui {
                rt: 11,
                imm: 0xdead,
            },
            Instr::Lw {
                rt: 12,
                rs: 13,
                imm: 100,
            },
            Instr::Sw {
                rt: 14,
                rs: 15,
                imm: -100,
            },
            Instr::Beq {
                rs: 16,
                rt: 17,
                imm: -4,
            },
            Instr::Bne {
                rs: 18,
                rt: 19,
                imm: 7,
            },
            Instr::J {
                target: 0x03ff_ffff,
            },
            Instr::Jal { target: 42 },
            Instr::Nop,
            Instr::Halt,
        ]
    }

    #[test]
    fn encode_decode_roundtrip() {
        for instr in all_sample_instrs() {
            let word = instr.encode();
            assert_eq!(Instr::decode(word), Ok(instr), "roundtrip of {instr}");
        }
    }

    #[test]
    fn nop_encodes_to_zero() {
        assert_eq!(Instr::Nop.encode(), 0);
        assert_eq!(Instr::decode(0), Ok(Instr::Nop));
    }

    #[test]
    fn invalid_words_are_rejected() {
        // Unknown funct.
        assert!(Instr::decode(0x0000_003e).is_err());
        // Unknown opcode.
        assert!(Instr::decode(0x7000_0000).is_err());
    }

    #[test]
    fn hazard_metadata_is_consistent() {
        assert_eq!(
            Instr::Add {
                rd: 1,
                rs: 2,
                rt: 3
            }
            .sources()
            .collect::<Vec<_>>(),
            vec![2, 3]
        );
        assert_eq!(
            Instr::Sw {
                rt: 4,
                rs: 5,
                imm: 0
            }
            .reg_mask(),
            1 << 4 | 1 << 5
        );
        assert_eq!(Instr::Jal { target: 3 }.reg_mask(), 1 << 31);
        assert_eq!(
            Instr::Add {
                rd: 1,
                rs: 2,
                rt: 3
            }
            .dest(),
            Some(1)
        );
        assert_eq!(
            Instr::Sw {
                rt: 4,
                rs: 5,
                imm: 0
            }
            .dest(),
            None
        );
        assert_eq!(Instr::Jal { target: 0 }.dest(), Some(31));
        assert!(Instr::Beq {
            rs: 0,
            rt: 0,
            imm: 0
        }
        .is_control_flow());
        assert!(!Instr::Lw {
            rt: 1,
            rs: 2,
            imm: 0
        }
        .is_control_flow());
        assert!(Instr::Mul {
            rd: 1,
            rs: 2,
            rt: 3
        }
        .is_mul());
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(
            Instr::Lw {
                rt: 3,
                rs: 4,
                imm: -8
            }
            .to_string(),
            "lw r3, -8(r4)"
        );
        assert_eq!(Instr::Tid { rd: 5 }.to_string(), "tid r5");
    }
}
