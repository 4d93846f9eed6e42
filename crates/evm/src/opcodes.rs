//! The EVM-subset instruction set and its gas schedule.
//!
//! The paper's blockchain layer executes "EVM bytecode, a Turing-complete
//! stack-based low-level language" (§IV). This reproduction implements the
//! arithmetic, logic, stack, memory, storage, control-flow, environment and
//! logging instructions — enough to run realistic contracts (token
//! transfers, registries, counters). Inter-contract `CALL`/`CREATE` from
//! inside the VM and precompiles are out of the subset (transaction-level
//! creation is supported, see `tx.rs`); `SHA3` uses SHA-256 rather than
//! Keccak-256 (see the README "Substitutions" section).

use std::fmt;

/// An EVM-subset opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // variants mirror the EVM instruction names
pub enum Opcode {
    Stop,
    Add,
    Mul,
    Sub,
    Div,
    SDiv,
    Mod,
    SMod,
    AddMod,
    MulMod,
    Exp,
    SignExtend,
    Lt,
    Gt,
    Slt,
    Sgt,
    Eq,
    IsZero,
    And,
    Or,
    Xor,
    Not,
    Byte,
    Shl,
    Shr,
    Sar,
    Sha3,
    Address,
    Caller,
    CallValue,
    CallDataLoad,
    CallDataSize,
    CallDataCopy,
    CodeSize,
    Number,
    Timestamp,
    Pop,
    MLoad,
    MStore,
    MStore8,
    SLoad,
    SStore,
    Jump,
    JumpI,
    Pc,
    MSize,
    Gas,
    JumpDest,
    /// `PUSH1`..`PUSH32`; payload is the number of immediate bytes.
    Push(u8),
    /// `DUP1`..`DUP16`; payload is the depth.
    Dup(u8),
    /// `SWAP1`..`SWAP16`; payload is the depth.
    Swap(u8),
    /// `LOG0`..`LOG4`; payload is the topic count.
    Log(u8),
    Return,
    Revert,
    Invalid,
}

impl Opcode {
    /// Decodes an opcode from its byte. Unknown bytes map to `Invalid`.
    pub fn from_byte(b: u8) -> Opcode {
        use Opcode::*;
        match b {
            0x00 => Stop,
            0x01 => Add,
            0x02 => Mul,
            0x03 => Sub,
            0x04 => Div,
            0x05 => SDiv,
            0x06 => Mod,
            0x07 => SMod,
            0x08 => AddMod,
            0x09 => MulMod,
            0x0a => Exp,
            0x0b => SignExtend,
            0x10 => Lt,
            0x11 => Gt,
            0x12 => Slt,
            0x13 => Sgt,
            0x14 => Eq,
            0x15 => IsZero,
            0x16 => And,
            0x17 => Or,
            0x18 => Xor,
            0x19 => Not,
            0x1a => Byte,
            0x1b => Shl,
            0x1c => Shr,
            0x1d => Sar,
            0x20 => Sha3,
            0x30 => Address,
            0x33 => Caller,
            0x34 => CallValue,
            0x35 => CallDataLoad,
            0x36 => CallDataSize,
            0x37 => CallDataCopy,
            0x38 => CodeSize,
            0x42 => Timestamp,
            0x43 => Number,
            0x50 => Pop,
            0x51 => MLoad,
            0x52 => MStore,
            0x53 => MStore8,
            0x54 => SLoad,
            0x55 => SStore,
            0x56 => Jump,
            0x57 => JumpI,
            0x58 => Pc,
            0x59 => MSize,
            0x5a => Gas,
            0x5b => JumpDest,
            0x60..=0x7f => Push(b - 0x5f),
            0x80..=0x8f => Dup(b - 0x7f),
            0x90..=0x9f => Swap(b - 0x8f),
            0xa0..=0xa4 => Log(b - 0xa0),
            0xf3 => Return,
            0xfd => Revert,
            _ => Invalid,
        }
    }

    /// Encodes the opcode back to its byte.
    pub fn to_byte(self) -> u8 {
        use Opcode::*;
        match self {
            Stop => 0x00,
            Add => 0x01,
            Mul => 0x02,
            Sub => 0x03,
            Div => 0x04,
            SDiv => 0x05,
            Mod => 0x06,
            SMod => 0x07,
            AddMod => 0x08,
            MulMod => 0x09,
            Exp => 0x0a,
            SignExtend => 0x0b,
            Lt => 0x10,
            Gt => 0x11,
            Slt => 0x12,
            Sgt => 0x13,
            Eq => 0x14,
            IsZero => 0x15,
            And => 0x16,
            Or => 0x17,
            Xor => 0x18,
            Not => 0x19,
            Byte => 0x1a,
            Shl => 0x1b,
            Shr => 0x1c,
            Sar => 0x1d,
            Sha3 => 0x20,
            Address => 0x30,
            Caller => 0x33,
            CallValue => 0x34,
            CallDataLoad => 0x35,
            CallDataSize => 0x36,
            CallDataCopy => 0x37,
            CodeSize => 0x38,
            Timestamp => 0x42,
            Number => 0x43,
            Pop => 0x50,
            MLoad => 0x51,
            MStore => 0x52,
            MStore8 => 0x53,
            SLoad => 0x54,
            SStore => 0x55,
            Jump => 0x56,
            JumpI => 0x57,
            Pc => 0x58,
            MSize => 0x59,
            Gas => 0x5a,
            JumpDest => 0x5b,
            Push(n) => 0x5f + n,
            Dup(n) => 0x7f + n,
            Swap(n) => 0x8f + n,
            Log(n) => 0xa0 + n,
            Return => 0xf3,
            Revert => 0xfd,
            Invalid => 0xfe,
        }
    }

    /// Static gas cost of the opcode (dynamic parts — memory expansion,
    /// hashing, log data — are charged separately by the interpreter).
    pub fn gas(self) -> u64 {
        use Opcode::*;
        match self {
            Stop | Return | Revert | Invalid => 0,
            JumpDest => 1,
            Add | Sub | Lt | Gt | Slt | Sgt | Eq | IsZero | And | Or | Xor | Not | Byte | Shl
            | Shr | Sar | CallValue | CallDataLoad | CallDataSize | Pop | Pc | MSize | Gas
            | Caller | Address | Number | Timestamp | CodeSize => 3,
            Push(_) | Dup(_) | Swap(_) => 3,
            Mul | Div | SDiv | Mod | SMod | SignExtend => 5,
            AddMod | MulMod | Jump => 8,
            JumpI => 10,
            Exp => 10,
            Sha3 => 30,
            CallDataCopy => 3,
            MLoad | MStore | MStore8 => 3,
            SLoad => 200,
            SStore => 5_000,
            Log(n) => 375 * (n as u64 + 1),
        }
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Opcode::*;
        match self {
            Push(n) => write!(f, "PUSH{n}"),
            Dup(n) => write!(f, "DUP{n}"),
            Swap(n) => write!(f, "SWAP{n}"),
            Log(n) => write!(f, "LOG{n}"),
            other => {
                let name = format!("{other:?}").to_uppercase();
                f.write_str(&name)
            }
        }
    }
}

/// Parses a mnemonic (e.g. `"SSTORE"`, `"PUSH4"`) into an opcode.
pub fn opcode_from_mnemonic(s: &str) -> Option<Opcode> {
    use Opcode::*;
    let upper = s.to_uppercase();
    if let Some(rest) = upper.strip_prefix("PUSH") {
        let n: u8 = rest.parse().ok()?;
        return (1..=32).contains(&n).then_some(Push(n));
    }
    if let Some(rest) = upper.strip_prefix("DUP") {
        let n: u8 = rest.parse().ok()?;
        return (1..=16).contains(&n).then_some(Dup(n));
    }
    if let Some(rest) = upper.strip_prefix("SWAP") {
        let n: u8 = rest.parse().ok()?;
        return (1..=16).contains(&n).then_some(Swap(n));
    }
    if let Some(rest) = upper.strip_prefix("LOG") {
        let n: u8 = rest.parse().ok()?;
        return (n <= 4).then_some(Log(n));
    }
    Some(match upper.as_str() {
        "STOP" => Stop,
        "ADD" => Add,
        "MUL" => Mul,
        "SUB" => Sub,
        "DIV" => Div,
        "SDIV" => SDiv,
        "MOD" => Mod,
        "SMOD" => SMod,
        "ADDMOD" => AddMod,
        "MULMOD" => MulMod,
        "EXP" => Exp,
        "SIGNEXTEND" => SignExtend,
        "LT" => Lt,
        "GT" => Gt,
        "SLT" => Slt,
        "SGT" => Sgt,
        "EQ" => Eq,
        "ISZERO" => IsZero,
        "AND" => And,
        "OR" => Or,
        "XOR" => Xor,
        "NOT" => Not,
        "BYTE" => Byte,
        "SHL" => Shl,
        "SHR" => Shr,
        "SAR" => Sar,
        "SHA3" => Sha3,
        "ADDRESS" => Address,
        "CALLER" => Caller,
        "CALLVALUE" => CallValue,
        "CALLDATALOAD" => CallDataLoad,
        "CALLDATASIZE" => CallDataSize,
        "CALLDATACOPY" => CallDataCopy,
        "CODESIZE" => CodeSize,
        "NUMBER" => Number,
        "TIMESTAMP" => Timestamp,
        "POP" => Pop,
        "MLOAD" => MLoad,
        "MSTORE" => MStore,
        "MSTORE8" => MStore8,
        "SLOAD" => SLoad,
        "SSTORE" => SStore,
        "JUMP" => Jump,
        "JUMPI" => JumpI,
        "PC" => Pc,
        "MSIZE" => MSize,
        "GAS" => Gas,
        "JUMPDEST" => JumpDest,
        "RETURN" => Return,
        "REVERT" => Revert,
        "INVALID" => Invalid,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_round_trip() {
        for b in 0u8..=0xff {
            let op = Opcode::from_byte(b);
            if op != Opcode::Invalid {
                assert_eq!(op.to_byte(), b, "opcode {op}");
            }
        }
    }

    #[test]
    fn push_dup_swap_ranges() {
        assert_eq!(Opcode::from_byte(0x60), Opcode::Push(1));
        assert_eq!(Opcode::from_byte(0x7f), Opcode::Push(32));
        assert_eq!(Opcode::from_byte(0x80), Opcode::Dup(1));
        assert_eq!(Opcode::from_byte(0x8f), Opcode::Dup(16));
        assert_eq!(Opcode::from_byte(0x90), Opcode::Swap(1));
        assert_eq!(Opcode::from_byte(0x9f), Opcode::Swap(16));
    }

    #[test]
    fn mnemonics() {
        assert_eq!(opcode_from_mnemonic("sstore"), Some(Opcode::SStore));
        assert_eq!(opcode_from_mnemonic("PUSH4"), Some(Opcode::Push(4)));
        assert_eq!(opcode_from_mnemonic("PUSH33"), None);
        assert_eq!(opcode_from_mnemonic("DUP16"), Some(Opcode::Dup(16)));
        assert_eq!(opcode_from_mnemonic("DUP17"), None);
        assert_eq!(opcode_from_mnemonic("LOG4"), Some(Opcode::Log(4)));
        assert_eq!(opcode_from_mnemonic("NOPE"), None);
    }

    #[test]
    fn display() {
        assert_eq!(Opcode::SStore.to_string(), "SSTORE");
        assert_eq!(Opcode::Push(3).to_string(), "PUSH3");
    }

    #[test]
    fn storage_ops_cost_more() {
        assert!(Opcode::SStore.gas() > Opcode::SLoad.gas());
        assert!(Opcode::SLoad.gas() > Opcode::Add.gas());
    }

    #[test]
    fn unknown_bytes_are_invalid() {
        assert_eq!(Opcode::from_byte(0xfe), Opcode::Invalid);
        assert_eq!(Opcode::from_byte(0xf1), Opcode::Invalid); // CALL: outside subset
        assert_eq!(Opcode::from_byte(0xf0), Opcode::Invalid); // CREATE: outside subset
    }
}
