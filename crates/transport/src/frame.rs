//! Length-prefixed framing over the [`sbft_wire`] codec.
//!
//! Every frame on a connection is a 4-byte little-endian length followed
//! by that many payload bytes; payloads are [`Wire`] encodings. The fixed
//! header keeps byte accounting exact: a message `m` costs precisely
//! `m.wire_len() + FRAME_HEADER_BYTES` bytes on the socket, so the
//! transport's counters line up with the simulator's (§II's linearity
//! property is measured in bytes either way).
//!
//! The first frame on every connection is a [`Handshake`] naming the
//! dialing node, so the acceptor can attribute inbound traffic. This is
//! identification, not authentication — protocol messages carry their own
//! signatures, which is what SBFT actually relies on.

use std::io::{self, Read, Write};

use sbft_wire::{Decoder, Encoder, Wire};

/// Bytes of framing overhead per message (the u32 length prefix).
pub const FRAME_HEADER_BYTES: usize = 4;

/// Default cap on a single frame's payload. Generous: the largest routine
/// message is a batched pre-prepare, well under a megabyte.
pub const DEFAULT_MAX_FRAME: usize = 16 * 1024 * 1024;

/// Magic bytes opening every handshake.
pub const HANDSHAKE_MAGIC: [u8; 4] = *b"SBFT";

/// Framing protocol version.
pub const HANDSHAKE_VERSION: u16 = 1;

/// The first frame on every connection: identifies the dialing node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Handshake {
    /// The dialer's node id (replica ids first, then clients, matching
    /// the simulator's numbering).
    pub node_id: u64,
}

impl Wire for Handshake {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_raw(&HANDSHAKE_MAGIC);
        enc.put_u16(HANDSHAKE_VERSION);
        enc.put_u64(self.node_id);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, sbft_wire::DecodeError> {
        let magic = dec.get_array::<4>()?;
        if magic != HANDSHAKE_MAGIC {
            return Err(sbft_wire::DecodeError::InvalidValue {
                what: "handshake magic",
            });
        }
        let version = dec.get_u16()?;
        if version != HANDSHAKE_VERSION {
            return Err(sbft_wire::DecodeError::InvalidValue {
                what: "handshake version",
            });
        }
        Ok(Handshake {
            node_id: dec.get_u64()?,
        })
    }
}

/// Total bytes a payload occupies on the socket, header included.
pub fn framed_len(payload: &[u8]) -> usize {
    FRAME_HEADER_BYTES + payload.len()
}

/// Appends one frame to `buf` whose payload `encode` appends in place:
/// a header placeholder, the payload, then the header patched with the
/// payload's length, so the payload is never copied. Returns the exact
/// framed byte count appended.
///
/// # Errors
///
/// Rejects payloads over `u32::MAX` bytes as
/// [`io::ErrorKind::InvalidInput`] (`buf` is truncated back in that
/// case).
pub fn encode_frame_with(
    buf: &mut Vec<u8>,
    encode: impl FnOnce(&mut Vec<u8>),
) -> io::Result<usize> {
    let start = buf.len();
    buf.extend_from_slice(&[0; FRAME_HEADER_BYTES]);
    encode(buf);
    let framed = buf.len() - start;
    let Ok(len) = u32::try_from(framed - FRAME_HEADER_BYTES) else {
        buf.truncate(start);
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame exceeds u32 length",
        ));
    };
    buf[start..start + FRAME_HEADER_BYTES].copy_from_slice(&len.to_le_bytes());
    Ok(framed)
}

/// Appends one frame (header + payload) to `buf` without touching a
/// socket; returns the exact framed byte count appended.
///
/// # Errors
///
/// As [`encode_frame_with`].
pub fn encode_frame_into(buf: &mut Vec<u8>, payload: &[u8]) -> io::Result<usize> {
    encode_frame_with(buf, |buf| buf.extend_from_slice(payload))
}

/// The framed size (header included) of the frame whose header opens
/// `bytes`; `Ok(None)` while fewer than [`FRAME_HEADER_BYTES`] are
/// there.
///
/// # Errors
///
/// A length prefix over `max_frame` is [`io::ErrorKind::InvalidData`],
/// reported before anything is allocated for it (a corrupt or hostile
/// prefix must not make us allocate unboundedly).
pub fn frame_len(bytes: &[u8], max_frame: usize) -> io::Result<Option<usize>> {
    let Some(header) = bytes.first_chunk::<FRAME_HEADER_BYTES>() else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(*header) as usize;
    if len > max_frame {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds cap of {max_frame}"),
        ));
    }
    Ok(Some(FRAME_HEADER_BYTES + len))
}

/// Writes one frame; returns the exact byte count put on the wire.
///
/// # Errors
///
/// Propagates I/O errors; rejects payloads over `u32::MAX` bytes as
/// [`io::ErrorKind::InvalidInput`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<usize> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame exceeds u32 length"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    Ok(framed_len(payload))
}

/// Reads one frame. Returns `Ok(None)` on a clean end-of-stream (the peer
/// closed between frames); a close mid-frame is [`io::ErrorKind::UnexpectedEof`].
///
/// # Errors
///
/// Propagates I/O errors; rejects frames longer than `max_frame` as
/// [`io::ErrorKind::InvalidData`] (a corrupt or hostile length prefix must
/// not make us allocate unboundedly).
pub fn read_frame(r: &mut impl Read, max_frame: usize) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    // Hand-rolled first read so a clean close (zero bytes) is not an error.
    let mut filled = 0;
    while filled < header.len() {
        let n = r.read(&mut header[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-header",
            ));
        }
        filled += n;
    }
    let len = frame_len(&header, max_frame)?.expect("a whole header") - FRAME_HEADER_BYTES;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Buffered frame decoder: owns a read-ahead buffer so one `read`
/// syscall can surface many small frames, instead of the two unbuffered
/// reads per frame [`read_frame`] pays. Semantics match [`read_frame`]
/// exactly — clean close between frames is `Ok(None)`, a close
/// mid-frame is [`io::ErrorKind::UnexpectedEof`], and a length prefix
/// over `max_frame` is [`io::ErrorKind::InvalidData`] — and the byte
/// accounting is unchanged: every returned payload consumed precisely
/// `framed_len(payload)` bytes from the stream.
///
/// Frames larger than the buffer fall back to a direct `read_exact`
/// into their own allocation, so `max_frame` may exceed the buffer.
pub struct FrameReader<R> {
    inner: R,
    buf: Vec<u8>,
    start: usize,
    end: usize,
    max_frame: usize,
}

impl<R: Read> FrameReader<R> {
    /// Wraps `inner` with a read-ahead buffer of `buffer` bytes (floored
    /// at one header) and a per-frame payload cap of `max_frame`.
    pub fn new(inner: R, buffer: usize, max_frame: usize) -> Self {
        FrameReader {
            inner,
            buf: vec![0u8; buffer.max(FRAME_HEADER_BYTES)],
            start: 0,
            end: 0,
            max_frame,
        }
    }

    fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// Grows the buffered window to at least `need` bytes. `Ok(false)`
    /// only on end-of-stream with *zero* bytes buffered while
    /// `clean_eof_ok` — anywhere else, running dry mid-datum is an
    /// [`io::ErrorKind::UnexpectedEof`].
    fn ensure(&mut self, need: usize, clean_eof_ok: bool) -> io::Result<bool> {
        while self.buffered() < need {
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            }
            let n = self.inner.read(&mut self.buf[self.end..])?;
            if n == 0 {
                if clean_eof_ok && self.buffered() == 0 {
                    return Ok(false);
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ));
            }
            self.end += n;
        }
        Ok(true)
    }

    /// Reads the next frame; `Ok(None)` on a clean close between frames.
    ///
    /// # Errors
    ///
    /// As [`read_frame`]: I/O errors propagate, oversized frames are
    /// [`io::ErrorKind::InvalidData`], truncation is
    /// [`io::ErrorKind::UnexpectedEof`].
    pub fn read_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        if !self.ensure(FRAME_HEADER_BYTES, true)? {
            return Ok(None);
        }
        let len = frame_len(&self.buf[self.start..self.end], self.max_frame)?
            .expect("a whole header is buffered")
            - FRAME_HEADER_BYTES;
        self.start += FRAME_HEADER_BYTES;
        if len <= self.buf.len() {
            self.ensure(len, false)?;
            let payload = self.buf[self.start..self.start + len].to_vec();
            self.start += len;
            return Ok(Some(payload));
        }
        // Oversized frame: drain what is buffered, then read the rest
        // straight into the payload's own allocation.
        let mut payload = vec![0u8; len];
        let have = self.buffered();
        payload[..have].copy_from_slice(&self.buf[self.start..self.end]);
        self.start = 0;
        self.end = 0;
        self.inner.read_exact(&mut payload[have..])?;
        Ok(Some(payload))
    }

    /// Reads and decodes a [`Wire`] value from the next frame.
    ///
    /// # Errors
    ///
    /// As [`read_msg`]: a clean close before the frame is
    /// [`io::ErrorKind::UnexpectedEof`], decode failures are
    /// [`io::ErrorKind::InvalidData`].
    pub fn read_msg<M: Wire>(&mut self) -> io::Result<M> {
        let payload = self.read_frame()?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before frame",
            )
        })?;
        M::from_wire_bytes(&payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

/// Writes a [`Wire`] value as one frame; returns bytes put on the wire.
///
/// # Errors
///
/// Propagates I/O errors from [`write_frame`].
pub fn write_msg<M: Wire>(w: &mut impl Write, msg: &M) -> io::Result<usize> {
    write_frame(w, &msg.to_wire_bytes())
}

/// Reads and decodes a [`Wire`] value from one frame.
///
/// # Errors
///
/// I/O errors propagate; decode failures and a clean close both surface
/// as [`io::ErrorKind::InvalidData`] / [`io::ErrorKind::UnexpectedEof`].
pub fn read_msg<M: Wire>(r: &mut impl Read, max_frame: usize) -> io::Result<M> {
    let payload = read_frame(r, max_frame)?.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before frame",
        )
    })?;
    M::from_wire_bytes(&payload)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_round_trip_with_exact_accounting() {
        let payload = b"hello sbft".to_vec();
        let mut buf = Vec::new();
        let written = write_frame(&mut buf, &payload).unwrap();
        assert_eq!(written, payload.len() + FRAME_HEADER_BYTES);
        assert_eq!(written, framed_len(&payload));
        assert_eq!(buf.len(), written, "accounting matches bytes on the wire");
        let back = read_frame(&mut Cursor::new(&buf), DEFAULT_MAX_FRAME)
            .unwrap()
            .unwrap();
        assert_eq!(back, payload);
    }

    #[test]
    fn empty_frame_round_trips() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[]).unwrap();
        assert_eq!(buf.len(), FRAME_HEADER_BYTES);
        let back = read_frame(&mut Cursor::new(&buf), DEFAULT_MAX_FRAME)
            .unwrap()
            .unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn clean_close_is_none_mid_header_is_error() {
        let empty: &[u8] = &[];
        assert!(read_frame(&mut Cursor::new(empty), 64).unwrap().is_none());
        let partial: &[u8] = &[3, 0];
        let err = read_frame(&mut Cursor::new(partial), 64).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_frame_rejected_without_allocation() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[0u8; 100]).unwrap();
        let err = read_frame(&mut Cursor::new(&buf), 64).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_payload_is_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[7u8; 32]).unwrap();
        buf.truncate(buf.len() - 5);
        let err = read_frame(&mut Cursor::new(&buf), 64).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// A reader that hands back the underlying bytes in capricious chunk
    /// sizes — frames land split across reads, headers straddle refills.
    struct SplitReader {
        data: Vec<u8>,
        pos: usize,
        rng: u64,
    }

    impl Read for SplitReader {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            if self.pos == self.data.len() {
                return Ok(0);
            }
            let cap = out.len().min(self.data.len() - self.pos);
            let n = (splitmix(&mut self.rng) as usize % cap).max(1).min(cap);
            out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn batched_frames_round_trip_through_split_reads() {
        // Random frame-size sequences: empty frames, tiny frames, frames
        // larger than the reader's buffer (exercising the direct-read
        // fallback), in random order.
        for seed in 0..8u64 {
            let mut rng = 0x5bf7_0000 ^ seed;
            let mut payloads: Vec<Vec<u8>> = Vec::new();
            for _ in 0..64 {
                let len = match splitmix(&mut rng) % 4 {
                    0 => 0,
                    1 => (splitmix(&mut rng) % 16) as usize,
                    2 => (splitmix(&mut rng) % 500) as usize,
                    // Bigger than the 256-byte reader buffer below.
                    _ => 256 + (splitmix(&mut rng) % 2048) as usize,
                };
                payloads.push((0..len).map(|_| splitmix(&mut rng) as u8).collect());
            }

            // Frame them back to back into one buffer.
            let mut wire = Vec::new();
            let mut written = 0;
            for payload in &payloads {
                written += encode_frame_into(&mut wire, payload).unwrap();
            }
            let expected: usize = payloads.iter().map(|p| framed_len(p)).sum();
            assert_eq!(written, expected, "accounting is exact");
            assert_eq!(wire.len(), expected, "accounting matches the wire");

            // Read back through a buffer smaller than the biggest frame,
            // fed by reads split at random boundaries.
            let mut reader = FrameReader::new(
                SplitReader {
                    data: wire,
                    pos: 0,
                    rng: seed ^ 0xdead_beef,
                },
                256,
                DEFAULT_MAX_FRAME,
            );
            for (idx, expected) in payloads.iter().enumerate() {
                let got = reader
                    .read_frame()
                    .unwrap()
                    .unwrap_or_else(|| panic!("seed {seed}: stream ended before frame {idx}"));
                assert_eq!(&got, expected, "seed {seed}: frame {idx} round-trips");
            }
            assert!(
                reader.read_frame().unwrap().is_none(),
                "clean end of stream"
            );
        }
    }

    #[test]
    fn frame_reader_matches_read_frame_error_semantics() {
        // Clean close between frames: None.
        let empty = SplitReader {
            data: Vec::new(),
            pos: 0,
            rng: 1,
        };
        let mut r = FrameReader::new(empty, 64, 64);
        assert!(r.read_frame().unwrap().is_none());

        // Close mid-header: UnexpectedEof.
        let partial = SplitReader {
            data: vec![3, 0],
            pos: 0,
            rng: 1,
        };
        let mut r = FrameReader::new(partial, 64, 64);
        assert_eq!(
            r.read_frame().unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );

        // Close mid-payload: UnexpectedEof, both for buffered frames and
        // for the oversized direct-read path.
        for frame_len in [32usize, 500] {
            let mut wire = Vec::new();
            write_frame(&mut wire, &vec![7u8; frame_len]).unwrap();
            wire.truncate(wire.len() - 5);
            let mut r = FrameReader::new(
                SplitReader {
                    data: wire,
                    pos: 0,
                    rng: 2,
                },
                64,
                1024,
            );
            assert_eq!(
                r.read_frame().unwrap_err().kind(),
                io::ErrorKind::UnexpectedEof,
                "truncated {frame_len}-byte frame"
            );
        }

        // Oversized length prefix: InvalidData, before any allocation.
        let mut wire = Vec::new();
        write_frame(&mut wire, &[0u8; 100]).unwrap();
        let mut r = FrameReader::new(
            SplitReader {
                data: wire,
                pos: 0,
                rng: 3,
            },
            64,
            64,
        );
        assert_eq!(
            r.read_frame().unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn handshake_round_trip_and_validation() {
        let hs = Handshake { node_id: 42 };
        let mut buf = Vec::new();
        write_msg(&mut buf, &hs).unwrap();
        let back: Handshake = read_msg(&mut Cursor::new(&buf), 64).unwrap();
        assert_eq!(back, hs);

        // Corrupt the magic: must be rejected, not misread.
        let mut bad = buf.clone();
        bad[FRAME_HEADER_BYTES] = b'X';
        let err = read_msg::<Handshake>(&mut Cursor::new(&bad), 64).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
