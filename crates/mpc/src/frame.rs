//! Checksummed frames for word streams that leave the process.
//!
//! A word stream that `dgo_core::wire` hands to an untrusted byte buffer (a
//! file, a socket) travels as a *frame*: a fixed header (magic, format
//! version, frame kind, payload length, checksum) followed by the payload as
//! little-endian `u64` words. The decoder is strict: wrong magic, unknown
//! version, oversized or truncated payloads, and checksum mismatches are all
//! typed [`FrameError`]s instead of garbage values, so damaged bytes can fail
//! a *read* but never produce a wrong *result*.
//!
//! Layout (all little-endian):
//!
//! ```text
//! offset  size  field
//!      0     4  magic  "DGOF"
//!      4     2  protocol version (currently 1)
//!      6     1  frame kind (see [`kind`])
//!      7     1  reserved, must be 0
//!      8     4  payload length in words
//!     12     8  FNV-1a checksum over the payload words
//!     20    8n  payload words
//! ```

use std::io::Read;

/// The four magic bytes opening every frame.
pub const MAGIC: [u8; 4] = *b"DGOF";

/// Format version carried in every frame header. A mismatch is a typed
/// error — a reader never parses bytes written by a different format.
pub const VERSION: u16 = 1;

/// Header size in bytes.
pub const HEADER_BYTES: usize = 20;

/// Default cap on a frame's payload length in words (2³² bytes): anything
/// larger is rejected before allocation, so a corrupted length field cannot
/// balloon memory.
pub const DEFAULT_MAX_PAYLOAD_WORDS: usize = 1 << 29;

/// Frame kinds: the header byte that tells a reader what the payload is.
pub mod kind {
    /// A framed `dgo_core::wire` view-tree bundle.
    pub const BUNDLE: u8 = 16;
}

/// A violation of the frame protocol, detected on decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Clean end of stream at a frame boundary (no further frame).
    Eof,
    /// The stream ended inside a frame header or payload.
    Truncated,
    /// An I/O error other than end-of-stream while reading.
    Io(std::io::ErrorKind),
    /// The stream does not open with the [`MAGIC`] bytes.
    BadMagic([u8; 4]),
    /// The header carries an unsupported protocol version.
    BadVersion(u16),
    /// The reserved header byte is nonzero.
    BadReserved(u8),
    /// The declared payload length exceeds the reader's cap.
    Oversized {
        /// Declared payload length in words.
        words: u64,
        /// The reader's cap.
        max: u64,
    },
    /// The payload does not hash to the header checksum.
    BadChecksum,
    /// Bytes remain after a complete frame where exactly one was expected.
    TrailingBytes(usize),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Eof => write!(f, "end of stream"),
            FrameError::Truncated => write!(f, "stream truncated mid-frame"),
            FrameError::Io(kind) => write!(f, "i/o error reading frame: {kind:?}"),
            FrameError::BadMagic(found) => write!(f, "bad frame magic {found:?}"),
            FrameError::BadVersion(found) => {
                write!(f, "unsupported frame version {found} (expected {VERSION})")
            }
            FrameError::BadReserved(found) => {
                write!(f, "nonzero reserved header byte {found}")
            }
            FrameError::Oversized { words, max } => {
                write!(f, "frame payload of {words} words exceeds cap of {max}")
            }
            FrameError::BadChecksum => write!(f, "frame checksum mismatch"),
            FrameError::TrailingBytes(extra) => {
                write!(f, "{extra} trailing bytes past the frame")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// FNV-1a over the payload words (little-endian byte order). Cheap, stable,
/// and plenty to catch truncation and corruption; this is an integrity
/// check, not authentication.
pub fn checksum(payload: &[u64]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &word in payload {
        for byte in word.to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Encodes one frame into a byte buffer.
pub fn encode_frame(frame_kind: u8, payload: &[u64]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(HEADER_BYTES + payload.len() * 8);
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&VERSION.to_le_bytes());
    bytes.push(frame_kind);
    bytes.push(0); // reserved
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&checksum(payload).to_le_bytes());
    for &word in payload {
        bytes.extend_from_slice(&word.to_le_bytes());
    }
    bytes
}

/// Validates a header's fixed fields and extracts `(kind, payload_words)`.
fn parse_header(
    header: &[u8; HEADER_BYTES],
    max_payload_words: usize,
) -> Result<(u8, usize, u64), FrameError> {
    if header[0..4] != MAGIC {
        return Err(FrameError::BadMagic([
            header[0], header[1], header[2], header[3],
        ]));
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != VERSION {
        return Err(FrameError::BadVersion(version));
    }
    if header[7] != 0 {
        return Err(FrameError::BadReserved(header[7]));
    }
    let words = u32::from_le_bytes([header[8], header[9], header[10], header[11]]) as usize;
    if words > max_payload_words {
        return Err(FrameError::Oversized {
            words: words as u64,
            max: max_payload_words as u64,
        });
    }
    let sum = u64::from_le_bytes(header[12..20].try_into().expect("8 header bytes"));
    Ok((header[6], words, sum))
}

/// Reads exactly `buf.len()` bytes; distinguishes a clean EOF before the
/// first byte (`at_boundary`) from one mid-buffer.
fn read_exact_or_eof(
    r: &mut impl Read,
    buf: &mut [u8],
    at_boundary: bool,
) -> Result<(), FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if at_boundary && filled == 0 {
                    FrameError::Eof
                } else {
                    FrameError::Truncated
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e.kind())),
        }
    }
    Ok(())
}

/// Reads one frame from a stream, enforcing the payload cap and checksum.
///
/// # Errors
///
/// Any [`FrameError`]; [`FrameError::Eof`] means the stream ended cleanly
/// between frames.
pub fn read_frame(
    r: &mut impl Read,
    max_payload_words: usize,
) -> Result<(u8, Vec<u64>), FrameError> {
    let mut header = [0u8; HEADER_BYTES];
    read_exact_or_eof(r, &mut header, true)?;
    let (frame_kind, words, declared_sum) = parse_header(&header, max_payload_words)?;
    let mut bytes = vec![0u8; words * 8];
    read_exact_or_eof(r, &mut bytes, false)?;
    let payload: Vec<u64> = bytes
        .chunks_exact(8)
        .map(|chunk| u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")))
        .collect();
    if checksum(&payload) != declared_sum {
        return Err(FrameError::BadChecksum);
    }
    Ok((frame_kind, payload))
}

/// Decodes exactly one frame from an in-memory buffer; trailing bytes are a
/// typed error (persisted artifacts hold one frame, not a stream).
///
/// # Errors
///
/// Any [`FrameError`] of [`read_frame`], plus [`FrameError::TrailingBytes`].
pub fn decode_frame(bytes: &[u8], max_payload_words: usize) -> Result<(u8, Vec<u64>), FrameError> {
    let mut cursor = bytes;
    let frame = read_frame(&mut cursor, max_payload_words)?;
    if !cursor.is_empty() {
        return Err(FrameError::TrailingBytes(cursor.len()));
    }
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Any kind byte other than [`kind::BUNDLE`]: frames carry it opaquely.
    const OTHER: u8 = 3;

    #[test]
    fn round_trip() {
        for payload in [vec![], vec![0u64], vec![1, u64::MAX, 42, 7]] {
            let bytes = encode_frame(OTHER, &payload);
            assert_eq!(bytes.len(), HEADER_BYTES + payload.len() * 8);
            let (k, back) = decode_frame(&bytes, DEFAULT_MAX_PAYLOAD_WORDS).unwrap();
            assert_eq!(k, OTHER);
            assert_eq!(back, payload);
        }
    }

    #[test]
    fn stream_carries_multiple_frames() {
        let mut stream = encode_frame(OTHER, &[1, 99]);
        stream.extend(encode_frame(kind::BUNDLE, &[5, 6, 7]));
        let mut cursor: &[u8] = &stream;
        assert_eq!(read_frame(&mut cursor, 64).unwrap(), (OTHER, vec![1, 99]));
        assert_eq!(
            read_frame(&mut cursor, 64).unwrap(),
            (kind::BUNDLE, vec![5, 6, 7])
        );
        assert_eq!(read_frame(&mut cursor, 64), Err(FrameError::Eof));
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = encode_frame(OTHER, &[1, 2, 3]);
        // Mid-payload.
        assert_eq!(
            decode_frame(&bytes[..bytes.len() - 3], 64),
            Err(FrameError::Truncated)
        );
        // Mid-header.
        assert_eq!(decode_frame(&bytes[..7], 64), Err(FrameError::Truncated));
        // Empty stream: a boundary EOF.
        assert_eq!(decode_frame(&[], 64), Err(FrameError::Eof));
    }

    #[test]
    fn bad_magic_version_reserved_rejected() {
        let mut bytes = encode_frame(OTHER, &[]);
        bytes[0] = b'X';
        assert!(matches!(
            decode_frame(&bytes, 64),
            Err(FrameError::BadMagic(_))
        ));
        let mut bytes = encode_frame(OTHER, &[]);
        bytes[4] = 9;
        assert_eq!(decode_frame(&bytes, 64), Err(FrameError::BadVersion(9)));
        let mut bytes = encode_frame(OTHER, &[]);
        bytes[7] = 1;
        assert_eq!(decode_frame(&bytes, 64), Err(FrameError::BadReserved(1)));
    }

    #[test]
    fn oversized_payload_rejected_before_allocation() {
        let mut bytes = encode_frame(OTHER, &[0; 4]);
        // Forge a huge declared length; the cap must reject it without
        // trusting it.
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_frame(&bytes, 1024),
            Err(FrameError::Oversized {
                words: u32::MAX as u64,
                max: 1024
            })
        );
    }

    #[test]
    fn corruption_fails_the_checksum() {
        let mut bytes = encode_frame(OTHER, &[10, 20, 30]);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        assert_eq!(decode_frame(&bytes, 64), Err(FrameError::BadChecksum));
        // Corrupting the stored checksum itself is equally fatal.
        let mut bytes = encode_frame(OTHER, &[10, 20, 30]);
        bytes[12] ^= 1;
        assert_eq!(decode_frame(&bytes, 64), Err(FrameError::BadChecksum));
    }

    #[test]
    fn trailing_bytes_rejected_by_decode_only() {
        let mut bytes = encode_frame(kind::BUNDLE, &[3]);
        bytes.push(0);
        assert_eq!(decode_frame(&bytes, 64), Err(FrameError::TrailingBytes(1)));
        // The streaming reader leaves trailing bytes for the next frame.
        let mut cursor: &[u8] = &bytes;
        assert_eq!(
            read_frame(&mut cursor, 64).unwrap(),
            (kind::BUNDLE, vec![3])
        );
        assert_eq!(cursor.len(), 1);
    }

    #[test]
    fn checksum_is_stable_and_sensitive() {
        assert_eq!(checksum(&[]), 0xcbf2_9ce4_8422_2325);
        assert_ne!(checksum(&[0]), checksum(&[1]));
        assert_ne!(checksum(&[1, 2]), checksum(&[2, 1]));
    }

    #[test]
    fn errors_display() {
        assert!(FrameError::BadVersion(3).to_string().contains("version 3"));
        assert!(FrameError::Oversized { words: 9, max: 4 }
            .to_string()
            .contains("exceeds cap"));
        assert!(FrameError::TrailingBytes(2)
            .to_string()
            .contains("2 trailing"));
    }
}
