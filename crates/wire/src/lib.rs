//! Binary wire codec with exact size accounting.
//!
//! The linearity property of SBFT (§II property 3) is about *bytes on the
//! wire*: committing a block must take a linear number of constant-size
//! messages. To measure that honestly, every protocol message in this
//! reproduction implements [`Wire`], and the network simulator derives
//! transmission delay and byte counters from real encoded lengths.
//!
//! The format is little-endian with LEB128 varints for lengths, plus typed
//! encodings for the crypto objects (33-byte group elements, as the paper's
//! compressed BLS points).
//!
//! # Examples
//!
//! ```
//! use sbft_wire::{Wire, Encoder, Decoder};
//!
//! let value: (u64, Vec<u8>) = (7, b"abc".to_vec());
//! let bytes = value.to_wire_bytes();
//! let decoded = <(u64, Vec<u8>)>::from_wire_bytes(&bytes)?;
//! assert_eq!(decoded, value);
//! # Ok::<(), sbft_wire::DecodeError>(())
//! ```

mod codec;
mod impls;

pub use codec::{Decoder, Encoder};
pub use impls::ClientSignature;

use std::error::Error;
use std::fmt;

/// Error returned when decoding malformed bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Ran out of input.
    UnexpectedEof {
        /// Bytes needed by the failed read.
        needed: usize,
        /// Bytes remaining in the input.
        remaining: usize,
    },
    /// A value failed semantic validation.
    InvalidValue {
        /// Description of the field that failed.
        what: &'static str,
    },
    /// Input had bytes left over after a complete decode.
    TrailingBytes {
        /// Number of undecoded bytes.
        count: usize,
    },
    /// A varint exceeded 64 bits.
    VarintOverflow,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof { needed, remaining } => {
                write!(
                    f,
                    "unexpected eof: needed {needed} bytes, {remaining} remaining"
                )
            }
            DecodeError::InvalidValue { what } => write!(f, "invalid value for {what}"),
            DecodeError::TrailingBytes { count } => {
                write!(f, "{count} trailing bytes after decode")
            }
            DecodeError::VarintOverflow => f.write_str("varint exceeds 64 bits"),
        }
    }
}

impl Error for DecodeError {}

/// Types that can be encoded to and decoded from the wire format.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to the encoder.
    fn encode(&self, enc: &mut Encoder);

    /// Decodes a value from the decoder.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on malformed input.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError>;

    /// Encodes into a fresh byte vector.
    fn to_wire_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        self.encode(&mut enc);
        enc.into_bytes()
    }

    /// Appends the encoding of `self` to `buf`, reusing its capacity;
    /// returns the number of bytes appended.
    fn encode_into(&self, buf: &mut Vec<u8>) -> usize {
        let start = buf.len();
        let mut enc = Encoder::from_vec(std::mem::take(buf));
        self.encode(&mut enc);
        *buf = enc.into_bytes();
        buf.len() - start
    }

    /// Number of bytes `self` occupies on the wire.
    fn wire_len(&self) -> usize {
        // Cheap enough for simulation purposes; types with hot paths can
        // override with a closed-form length.
        self.to_wire_bytes().len()
    }

    /// Decodes from a complete byte slice, rejecting trailing bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on malformed or over-long input.
    fn from_wire_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut dec = Decoder::new(bytes);
        let value = Self::decode(&mut dec)?;
        let remaining = dec.remaining();
        if remaining != 0 {
            return Err(DecodeError::TrailingBytes { count: remaining });
        }
        Ok(value)
    }
}
