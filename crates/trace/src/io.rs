//! The binary wire encoding of static instructions, shared by every
//! on-disk trace: a chunked `.fvps` store (`fetchvp-tracestore`) interns
//! each program's instructions once in its footer in this encoding.

use std::io::{self, Read, Write};

use fetchvp_isa::{AluOp, Cond, Instr, Reg};

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u8<R: Read>(r: &mut R) -> io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn alu_op_tag(op: AluOp) -> u8 {
    AluOp::ALL.iter().position(|&o| o == op).expect("op in ALL") as u8
}

fn alu_op_from(tag: u8) -> io::Result<AluOp> {
    AluOp::ALL.get(tag as usize).copied().ok_or_else(|| bad(format!("bad ALU op tag {tag}")))
}

fn cond_tag(cond: Cond) -> u8 {
    Cond::ALL.iter().position(|&c| c == cond).expect("cond in ALL") as u8
}

fn cond_from(tag: u8) -> io::Result<Cond> {
    Cond::ALL.get(tag as usize).copied().ok_or_else(|| bad(format!("bad condition tag {tag}")))
}

fn reg_from(idx: u8) -> io::Result<Reg> {
    Reg::new(idx).ok_or_else(|| bad(format!("bad register index {idx}")))
}

/// Writes one static instruction in the tagged wire encoding (a one-byte
/// variant tag followed by the variant's fields).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_instr<W: Write>(w: &mut W, instr: &Instr) -> io::Result<()> {
    match *instr {
        Instr::Alu { op, dst, a, b } => {
            w.write_all(&[0, alu_op_tag(op), dst.index() as u8, a.index() as u8, b.index() as u8])
        }
        Instr::AluImm { op, dst, a, imm } => {
            w.write_all(&[1, alu_op_tag(op), dst.index() as u8, a.index() as u8])?;
            write_u64(w, imm as u64)
        }
        Instr::LoadImm { dst, imm } => {
            w.write_all(&[2, dst.index() as u8])?;
            write_u64(w, imm as u64)
        }
        Instr::Load { dst, base, offset } => {
            w.write_all(&[3, dst.index() as u8, base.index() as u8])?;
            write_u64(w, offset as u64)
        }
        Instr::Store { src, base, offset } => {
            w.write_all(&[4, src.index() as u8, base.index() as u8])?;
            write_u64(w, offset as u64)
        }
        Instr::Branch { cond, a, b, target } => {
            w.write_all(&[5, cond_tag(cond), a.index() as u8, b.index() as u8])?;
            write_u64(w, target)
        }
        Instr::Jump { target } => {
            w.write_all(&[6])?;
            write_u64(w, target)
        }
        Instr::JumpInd { base } => w.write_all(&[7, base.index() as u8]),
        Instr::Call { target, link } => {
            w.write_all(&[8, link.index() as u8])?;
            write_u64(w, target)
        }
        Instr::Halt => w.write_all(&[9]),
        Instr::Nop => w.write_all(&[10]),
    }
}

/// Reads one static instruction written by [`write_instr`].
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidData`] on an unknown tag, operation,
/// condition, or register index, and propagates reader errors.
pub fn read_instr<R: Read>(r: &mut R) -> io::Result<Instr> {
    Ok(match read_u8(r)? {
        0 => {
            let op = alu_op_from(read_u8(r)?)?;
            let dst = reg_from(read_u8(r)?)?;
            let a = reg_from(read_u8(r)?)?;
            let b = reg_from(read_u8(r)?)?;
            Instr::Alu { op, dst, a, b }
        }
        1 => {
            let op = alu_op_from(read_u8(r)?)?;
            let dst = reg_from(read_u8(r)?)?;
            let a = reg_from(read_u8(r)?)?;
            Instr::AluImm { op, dst, a, imm: read_u64(r)? as i64 }
        }
        2 => {
            let dst = reg_from(read_u8(r)?)?;
            Instr::LoadImm { dst, imm: read_u64(r)? as i64 }
        }
        3 => {
            let dst = reg_from(read_u8(r)?)?;
            let base = reg_from(read_u8(r)?)?;
            Instr::Load { dst, base, offset: read_u64(r)? as i64 }
        }
        4 => {
            let src = reg_from(read_u8(r)?)?;
            let base = reg_from(read_u8(r)?)?;
            Instr::Store { src, base, offset: read_u64(r)? as i64 }
        }
        5 => {
            let cond = cond_from(read_u8(r)?)?;
            let a = reg_from(read_u8(r)?)?;
            let b = reg_from(read_u8(r)?)?;
            Instr::Branch { cond, a, b, target: read_u64(r)? }
        }
        6 => Instr::Jump { target: read_u64(r)? },
        7 => Instr::JumpInd { base: reg_from(read_u8(r)?)? },
        8 => {
            let link = reg_from(read_u8(r)?)?;
            Instr::Call { target: read_u64(r)?, link }
        }
        9 => Instr::Halt,
        10 => Instr::Nop,
        t => return Err(bad(format!("bad instruction tag {t}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn variants() -> [Instr; 11] {
        use Instr::*;
        [
            Alu { op: AluOp::Mul, dst: Reg::R1, a: Reg::R2, b: Reg::R3 },
            AluImm { op: AluOp::Shr, dst: Reg::R4, a: Reg::R5, imm: -77 },
            LoadImm { dst: Reg::R6, imm: i64::MIN },
            Load { dst: Reg::R7, base: Reg::R8, offset: 1 << 40 },
            Store { src: Reg::R9, base: Reg::R10, offset: -8 },
            Branch { cond: Cond::Geu, a: Reg::R11, b: Reg::R12, target: 99 },
            Jump { target: u64::MAX },
            JumpInd { base: Reg::R31 },
            Call { target: 3, link: Reg::R30 },
            Halt,
            Nop,
        ]
    }

    fn encode(instr: &Instr) -> Vec<u8> {
        let mut buf = Vec::new();
        write_instr(&mut buf, instr).unwrap();
        buf
    }

    #[test]
    fn every_instruction_variant_round_trips() {
        for instr in variants() {
            assert_eq!(read_instr(&mut encode(&instr).as_slice()).unwrap(), instr, "{instr}");
        }
    }

    #[test]
    fn corrupt_instruction_tag_is_rejected() {
        let err = read_instr(&mut &[200u8][..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let buf = encode(&Instr::Jump { target: 7 });
        assert!(read_instr(&mut &buf[..buf.len() - 3]).is_err());
    }

    #[test]
    fn every_truncation_point_is_rejected() {
        for instr in variants() {
            let buf = encode(&instr);
            for len in 0..buf.len() {
                assert!(
                    read_instr(&mut &buf[..len]).is_err(),
                    "{instr}: {len}-byte prefix decoded"
                );
            }
        }
    }

    #[test]
    fn bit_flips_never_panic() {
        for instr in variants() {
            let buf = encode(&instr);
            for pos in 0..buf.len() {
                for bit in 0..8 {
                    let mut flipped = buf.clone();
                    flipped[pos] ^= 1 << bit;
                    // A flipped bit may still decode to a (different)
                    // valid instruction; the guarantee is a clean Ok/Err.
                    let _ = read_instr(&mut flipped.as_slice());
                }
            }
        }
    }
}
