//! Parse-path error type shared by every wire format in this crate.

use core::fmt;

/// Error returned by every `parse` function in this crate.
///
/// Parsing untrusted bytes must never panic; every failure mode is reported
/// through this enum so callers (fuzz tests, middlebox scanners) can
/// distinguish truncation from corruption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The buffer is shorter than the fixed header of the protocol.
    Truncated {
        /// Protocol whose header was being parsed.
        what: &'static str,
        /// Bytes required to make progress.
        need: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// A length or offset field points outside the buffer.
    BadLength {
        /// Protocol whose length field was inconsistent.
        what: &'static str,
    },
    /// A version / type / magic field holds an unsupported value.
    Unsupported {
        /// Protocol that rejected the field.
        what: &'static str,
        /// The offending value, widened for display.
        value: u32,
    },
    /// A checksum did not verify.
    BadChecksum {
        /// Protocol whose checksum failed.
        what: &'static str,
    },
    /// DNS name decompression exceeded limits (loop or over-long name).
    BadName,
    /// The bytes are not a syntactically valid HTTP message.
    BadHttp {
        /// Human-readable reason, static so errors stay allocation-free.
        reason: &'static str,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Truncated { what, need, have } => {
                write!(f, "{what}: truncated (need {need} bytes, have {have})")
            }
            ParseError::BadLength { what } => write!(f, "{what}: inconsistent length field"),
            ParseError::Unsupported { what, value } => {
                write!(f, "{what}: unsupported field value {value}")
            }
            ParseError::BadChecksum { what } => write!(f, "{what}: checksum mismatch"),
            ParseError::BadName => write!(f, "dns: malformed or looping compressed name"),
            ParseError::BadHttp { reason } => write!(f, "http: {reason}"),
        }
    }
}

impl std::error::Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_human_readable() {
        let e = ParseError::Truncated { what: "ipv4", need: 20, have: 7 };
        assert_eq!(e.to_string(), "ipv4: truncated (need 20 bytes, have 7)");
        let e = ParseError::BadChecksum { what: "tcp" };
        assert!(e.to_string().contains("tcp"));
        let e = ParseError::Unsupported { what: "ipv4", value: 6 };
        assert!(e.to_string().contains('6'));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(ParseError::BadName, ParseError::BadName);
        assert_ne!(
            ParseError::BadLength { what: "udp" },
            ParseError::BadLength { what: "tcp" }
        );
    }
}
