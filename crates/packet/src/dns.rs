//! DNS message wire format (RFC 1035): header, questions, resource
//! records, A/CNAME rdata, and name compression (parsed, never emitted).
//!
//! [`DnsMessage`] is the general codec. A responder's round trip has a
//! wire-level path beside it that builds no message: [`QueryView`]
//! reads a query in place and writes the reply `DnsMessage` would
//! write, and [`a_records`] reads a reply's A records. Both accept and
//! reject exactly what [`DnsMessage::parse`] does.

use std::borrow::Borrow;
use std::fmt;
use std::net::Ipv4Addr;

use crate::error::ParseError;

/// Maximum length of a domain name on the wire (RFC 1035 §2.3.4).
const MAX_NAME_LEN: usize = 255;
/// Cap on compression-pointer hops, defeating pointer loops.
const MAX_POINTER_HOPS: usize = 32;
/// The error of every length or offset past the end of a message.
const BAD_LENGTH: ParseError = ParseError::BadLength { what: "dns" };

/// A fully-qualified domain name, stored lowercase without the trailing dot.
///
/// DNS matching is case-insensitive; normalizing at construction keeps every
/// comparison in the resolver substrate a plain equality test.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Name(String);

impl Name {
    /// Build a name from a dotted string; normalizes case and strips any
    /// trailing dot. Empty labels (other than the root itself) are invalid
    /// on the wire but tolerated here for ergonomic construction of test
    /// fixtures — `emit` will reject them.
    pub fn new(s: &str) -> Self {
        Name(s.trim_end_matches('.').to_ascii_lowercase())
    }

    /// The dotted representation without trailing dot.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Length of this name on the wire, uncompressed, checked as by
    /// [`encode_dotted`].
    fn wire_len(&self) -> Result<usize, ParseError> {
        encode_dotted(&self.0, &mut [0; MAX_NAME_LEN + 1])
    }

    /// Append this name, uncompressed, to `out`. The caller has checked
    /// it with [`Name::wire_len`].
    fn emit(&self, out: &mut Vec<u8>) {
        let mut wire = [0; MAX_NAME_LEN + 1];
        if let Ok(len) = encode_dotted(&self.0, &mut wire) {
            out.extend_from_slice(&wire[..len]);
        }
    }

    /// Decode a (possibly compressed) name starting at `pos` in `msg`.
    ///
    /// Returns the name and the offset just past its *in-place* encoding
    /// (i.e. past the first pointer if one is used). The dotted text is
    /// assembled on the stack ([`Dotted`]) and allocated once.
    fn parse(msg: &[u8], pos: usize) -> Result<(Name, usize), ParseError> {
        let mut text = Dotted::default();
        let end = walk_name(msg, pos, |label| text.push_label(label))?;
        Ok((Name(text.as_str().to_owned()), end))
    }
}

/// Lookups by dotted text: a `Name` orders, compares and hashes as its
/// string does, so maps and sets keyed by `Name` can be queried with the
/// `&str` a decoded query yields, without allocating a `Name`.
impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        &self.0
    }
}

/// Follow the (possibly compressed) name at `pos` in `msg`, handing
/// each label's bytes to `label` in order. Returns the offset just past
/// the name's in-place encoding. Rejects a pointer or label past the
/// end, a reserved label type, more than [`MAX_POINTER_HOPS`] pointers
/// and more than [`MAX_NAME_LEN`] bytes of length-prefixed labels.
fn walk_name(msg: &[u8], pos: usize, mut label: impl FnMut(&[u8])) -> Result<usize, ParseError> {
    let mut cursor = pos;
    let mut end_after: Option<usize> = None;
    let mut hops = 0usize;
    let mut total = 0usize;
    loop {
        let &len = msg.get(cursor).ok_or(ParseError::BadName)?;
        if len & 0xc0 == 0xc0 {
            let &lo = msg.get(cursor + 1).ok_or(ParseError::BadName)?;
            if end_after.is_none() {
                end_after = Some(cursor + 2);
            }
            cursor = usize::from(u16::from_be_bytes([len & 0x3f, lo]));
            hops += 1;
            if hops > MAX_POINTER_HOPS {
                return Err(ParseError::BadName);
            }
        } else if len == 0 {
            return Ok(end_after.unwrap_or(cursor + 1));
        } else if len & 0xc0 != 0 {
            return Err(ParseError::BadName); // reserved label types
        } else {
            let len = usize::from(len);
            total += len + 1;
            if total > MAX_NAME_LEN {
                return Err(ParseError::BadName);
            }
            label(msg.get(cursor + 1..cursor + 1 + len).ok_or(ParseError::BadName)?);
            cursor += 1 + len;
        }
    }
}

/// The dotted text of a wire name, on the stack: each wire byte one
/// Latin-1 char, ASCII letters lowercased, labels joined by dots.
struct Dotted {
    /// A char takes at most two UTF-8 bytes, so the text of a name
    /// within [`MAX_NAME_LEN`] wire bytes always fits.
    text: [u8; 2 * MAX_NAME_LEN],
    len: usize,
}

impl Default for Dotted {
    fn default() -> Self {
        Dotted { text: [0; 2 * MAX_NAME_LEN], len: 0 }
    }
}

impl Dotted {
    fn push_label(&mut self, bytes: &[u8]) {
        if self.len > 0 {
            self.text[self.len] = b'.';
            self.len += 1;
        }
        for &b in bytes {
            let c = char::from(b).to_ascii_lowercase();
            self.len += c.encode_utf8(&mut self.text[self.len..]).len();
        }
    }

    fn as_str(&self) -> &str {
        // Every byte went in as a whole char, so this is always UTF-8.
        std::str::from_utf8(&self.text[..self.len]).unwrap_or_default()
    }
}

/// Write the dotted name `s` into `wire` uncompressed: one zero byte
/// for the root, else each dot-separated label behind its length byte,
/// then the zero. Returns the length written. Rejects what cannot be
/// encoded: an empty label inside a non-root name, a label over 63
/// bytes, or more than [`MAX_NAME_LEN`] bytes of length-prefixed labels.
fn encode_dotted(s: &str, wire: &mut [u8; MAX_NAME_LEN + 1]) -> Result<usize, ParseError> {
    let mut total = 0usize;
    if !s.is_empty() {
        for label in s.split('.') {
            let len = label.len();
            if len == 0 || len > 63 || total + len + 1 > MAX_NAME_LEN {
                return Err(ParseError::BadName);
            }
            wire[total] = len as u8;
            wire[total + 1..total + 1 + len].copy_from_slice(label.as_bytes());
            total += len + 1;
        }
    }
    wire[total] = 0;
    Ok(total + 1)
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Record/query type. Only the types the measurement pipeline uses are
/// first-class; everything else is carried numerically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DnsType {
    /// IPv4 address record.
    A,
    /// Canonical-name alias.
    Cname,
    /// Any other type, by number.
    Other(u16),
}

impl DnsType {
    /// Numeric type code.
    pub fn code(self) -> u16 {
        match self {
            DnsType::A => 1,
            DnsType::Cname => 5,
            DnsType::Other(n) => n,
        }
    }

    /// From numeric code.
    pub fn from_code(n: u16) -> Self {
        match n {
            1 => DnsType::A,
            5 => DnsType::Cname,
            other => DnsType::Other(other),
        }
    }
}

/// Response code (RFC 1035 §4.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rcode {
    /// No error.
    NoError,
    /// Format error.
    FormErr,
    /// Server failure.
    ServFail,
    /// Name does not exist.
    NxDomain,
    /// Query refused.
    Refused,
    /// Any other code.
    Other(u8),
}

impl Rcode {
    /// Numeric code.
    pub fn code(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::Refused => 5,
            Rcode::Other(n) => n,
        }
    }

    /// From numeric code.
    pub fn from_code(n: u8) -> Self {
        match n {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            5 => Rcode::Refused,
            other => Rcode::Other(other),
        }
    }
}

/// Decoded DNS header flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DnsFlags {
    /// True for responses, false for queries.
    pub response: bool,
    /// Recursion desired.
    pub rd: bool,
    /// Recursion available.
    pub ra: bool,
    /// Authoritative answer.
    pub aa: bool,
    /// Response code.
    pub rcode: Rcode,
}

impl Default for DnsFlags {
    fn default() -> Self {
        DnsFlags { response: false, rd: true, ra: false, aa: false, rcode: Rcode::NoError }
    }
}

/// A question entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DnsQuestion {
    /// Queried name.
    pub name: Name,
    /// Queried type.
    pub qtype: DnsType,
}

/// A resource record in the answer section.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DnsRecord {
    /// Owner name.
    pub name: Name,
    /// Time-to-live, seconds.
    pub ttl: u32,
    /// Record data.
    pub data: RecordData,
}

/// Typed rdata.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RecordData {
    /// An IPv4 address.
    A(Ipv4Addr),
    /// A canonical-name alias.
    Cname(Name),
    /// Opaque rdata for other types.
    Other {
        /// Type code.
        rtype: u16,
        /// Raw rdata bytes.
        bytes: Vec<u8>,
    },
}

impl RecordData {
    /// The type code of this rdata.
    pub fn rtype(&self) -> u16 {
        match self {
            RecordData::A(_) => 1,
            RecordData::Cname(_) => 5,
            RecordData::Other { rtype, .. } => *rtype,
        }
    }

    /// RDLENGTH: the length of this rdata on the wire.
    fn rdlength(&self) -> Result<u16, ParseError> {
        match self {
            RecordData::A(_) => Ok(4),
            RecordData::Cname(name) => wire_u16(name.wire_len()?),
            RecordData::Other { bytes, .. } => wire_u16(bytes.len()),
        }
    }
}

/// A count or length as its 16-bit header field; more is unencodable.
fn wire_u16(n: usize) -> Result<u16, ParseError> {
    u16::try_from(n).map_err(|_| ParseError::BadLength { what: "dns" })
}

/// A DNS message: header, one-or-more questions, answers.
///
/// Authority and additional sections are not modelled — no system in the
/// paper inspects them — but their counts parse as zero and emit as zero,
/// so wire compatibility is preserved.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DnsMessage {
    /// Transaction id, echoed by responders.
    pub id: u16,
    /// Header flags.
    pub flags: DnsFlags,
    /// Question section.
    pub questions: Vec<DnsQuestion>,
    /// Answer section.
    pub answers: Vec<DnsRecord>,
}

impl DnsMessage {
    /// Build a standard recursive A query.
    pub fn query_a(id: u16, name: &str) -> Self {
        DnsMessage {
            id,
            flags: DnsFlags::default(),
            questions: vec![DnsQuestion { name: Name::new(name), qtype: DnsType::A }],
            answers: Vec::new(),
        }
    }

    /// Build a response to `query` carrying the given A records. The
    /// response takes over the query's question section.
    pub fn answer_a(query: DnsMessage, ips: &[Ipv4Addr], ttl: u32) -> Self {
        let root = Name::new("");
        let name = query.questions.first().map_or(&root, |q| &q.name);
        let answers = ips
            .iter()
            .map(|ip| DnsRecord { name: name.clone(), ttl, data: RecordData::A(*ip) })
            .collect();
        DnsMessage { answers, ..DnsMessage::error(query, Rcode::NoError) }
    }

    /// Build an NXDOMAIN (or other error) response to `query`, which
    /// hands over its question section.
    pub fn error(query: DnsMessage, rcode: Rcode) -> Self {
        DnsMessage {
            id: query.id,
            flags: DnsFlags { response: true, rd: query.flags.rd, ra: true, aa: false, rcode },
            questions: query.questions,
            answers: Vec::new(),
        }
    }

    /// All A-record addresses in the answer section.
    pub fn a_records(&self) -> Vec<Ipv4Addr> {
        self.answers
            .iter()
            .filter_map(|r| match r.data {
                RecordData::A(ip) => Some(ip),
                _ => None,
            })
            .collect()
    }

    /// Length of this message on the wire, with every RDLENGTH checked
    /// to fit its 16-bit field and every name checked as by
    /// [`Name::wire_len`].
    fn wire_len(&self) -> Result<usize, ParseError> {
        let mut len = 12;
        for q in &self.questions {
            len += q.name.wire_len()? + 4;
        }
        for r in &self.answers {
            len += r.name.wire_len()? + 10 + usize::from(r.data.rdlength()?);
        }
        Ok(len)
    }

    /// Serialize to wire format (no compression), reserving the exact
    /// length first. On error nothing is appended to `out`.
    pub fn emit(&self, out: &mut Vec<u8>) -> Result<(), ParseError> {
        let qdcount = wire_u16(self.questions.len())?;
        let ancount = wire_u16(self.answers.len())?;
        out.reserve_exact(self.wire_len()?);
        out.extend_from_slice(&self.id.to_be_bytes());
        let mut flags: u16 = 0;
        if self.flags.response {
            flags |= 0x8000;
        }
        if self.flags.aa {
            flags |= 0x0400;
        }
        if self.flags.rd {
            flags |= 0x0100;
        }
        if self.flags.ra {
            flags |= 0x0080;
        }
        flags |= u16::from(self.flags.rcode.code() & 0x0f);
        out.extend_from_slice(&flags.to_be_bytes());
        out.extend_from_slice(&qdcount.to_be_bytes());
        out.extend_from_slice(&ancount.to_be_bytes());
        out.extend_from_slice(&0u16.to_be_bytes()); // NSCOUNT
        out.extend_from_slice(&0u16.to_be_bytes()); // ARCOUNT
        for q in &self.questions {
            q.name.emit(out);
            out.extend_from_slice(&q.qtype.code().to_be_bytes());
            out.extend_from_slice(&1u16.to_be_bytes()); // class IN
        }
        for r in &self.answers {
            r.name.emit(out);
            out.extend_from_slice(&r.data.rtype().to_be_bytes());
            out.extend_from_slice(&1u16.to_be_bytes());
            out.extend_from_slice(&r.ttl.to_be_bytes());
            out.extend_from_slice(&r.data.rdlength()?.to_be_bytes());
            match &r.data {
                RecordData::A(ip) => out.extend_from_slice(&ip.octets()),
                RecordData::Cname(name) => name.emit(out),
                RecordData::Other { bytes, .. } => out.extend_from_slice(bytes),
            }
        }
        Ok(())
    }

    /// Parse a message from wire format, following compression pointers.
    pub fn parse(buf: &[u8]) -> Result<DnsMessage, ParseError> {
        if buf.len() < 12 {
            return Err(ParseError::Truncated { what: "dns", need: 12, have: buf.len() });
        }
        let id = u16::from_be_bytes([buf[0], buf[1]]);
        let flags_raw = u16::from_be_bytes([buf[2], buf[3]]);
        let flags = DnsFlags {
            response: flags_raw & 0x8000 != 0,
            aa: flags_raw & 0x0400 != 0,
            rd: flags_raw & 0x0100 != 0,
            ra: flags_raw & 0x0080 != 0,
            rcode: Rcode::from_code((flags_raw & 0x0f) as u8),
        };
        let qdcount = u16::from_be_bytes([buf[4], buf[5]]);
        let ancount = u16::from_be_bytes([buf[6], buf[7]]);
        let nscount = u16::from_be_bytes([buf[8], buf[9]]);
        let arcount = u16::from_be_bytes([buf[10], buf[11]]);
        let mut pos = 12;
        let mut questions = Vec::with_capacity(usize::from(qdcount.min(16)));
        for _ in 0..qdcount {
            let (name, next) = Name::parse(buf, pos)?;
            pos = next;
            let ty = buf.get(pos..pos + 2).ok_or(ParseError::BadLength { what: "dns" })?;
            let qtype = DnsType::from_code(u16::from_be_bytes([ty[0], ty[1]]));
            pos += 4; // type + class
            if pos > buf.len() {
                return Err(ParseError::BadLength { what: "dns" });
            }
            questions.push(DnsQuestion { name, qtype });
        }
        let mut answers = Vec::with_capacity(usize::from(ancount.min(32)));
        let total_rrs = u32::from(ancount) + u32::from(nscount) + u32::from(arcount);
        for i in 0..total_rrs {
            let (name, next) = Name::parse(buf, pos)?;
            pos = next;
            let fixed = buf.get(pos..pos + 10).ok_or(ParseError::BadLength { what: "dns" })?;
            let rtype = u16::from_be_bytes([fixed[0], fixed[1]]);
            let ttl = u32::from_be_bytes([fixed[4], fixed[5], fixed[6], fixed[7]]);
            let rdlen = usize::from(u16::from_be_bytes([fixed[8], fixed[9]]));
            pos += 10;
            let rdata = buf.get(pos..pos + rdlen).ok_or(ParseError::BadLength { what: "dns" })?;
            let rdata_pos = pos;
            pos += rdlen;
            if i >= u32::from(ancount) {
                continue; // skip authority/additional records
            }
            let data = match rtype {
                1 if rdlen == 4 => RecordData::A(Ipv4Addr::new(rdata[0], rdata[1], rdata[2], rdata[3])),
                5 => {
                    let (cname, _) = Name::parse(buf, rdata_pos)?;
                    RecordData::Cname(cname)
                }
                _ => RecordData::Other { rtype, bytes: rdata.to_vec() },
            };
            answers.push(DnsRecord { name, ttl, data });
        }
        Ok(DnsMessage { id, flags, questions, answers })
    }
}

/// A message's six header words: id, flags, QDCOUNT, ANCOUNT, NSCOUNT
/// and ARCOUNT.
fn header(msg: &[u8]) -> Result<[u16; 6], ParseError> {
    let Some(head) = msg.get(..12) else {
        return Err(ParseError::Truncated { what: "dns", need: 12, have: msg.len() });
    };
    let mut words = [0; 6];
    for (word, pair) in words.iter_mut().zip(head.chunks_exact(2)) {
        *word = u16::from_be_bytes([pair[0], pair[1]]);
    }
    Ok(words)
}

/// The offset past the type and class of a question whose name ends at
/// `pos`.
fn question_end(msg: &[u8], pos: usize) -> Result<usize, ParseError> {
    let end = pos + 4;
    if end > msg.len() {
        return Err(BAD_LENGTH);
    }
    Ok(end)
}

/// Check the `counts` (ANCOUNT, NSCOUNT, ARCOUNT) resource records from
/// `pos` on as [`DnsMessage::parse`] reads them, handing the answer
/// section's A records to `a` in order.
fn walk_records(
    msg: &[u8],
    mut pos: usize,
    [ancount, nscount, arcount]: [u16; 3],
    mut a: impl FnMut(Ipv4Addr),
) -> Result<(), ParseError> {
    let total = u32::from(ancount) + u32::from(nscount) + u32::from(arcount);
    for i in 0..total {
        pos = walk_name(msg, pos, |_| {})?;
        let fixed = msg.get(pos..pos + 10).ok_or(BAD_LENGTH)?;
        let rtype = u16::from_be_bytes([fixed[0], fixed[1]]);
        let rdlen = usize::from(u16::from_be_bytes([fixed[8], fixed[9]]));
        let rdata = msg.get(pos + 10..pos + 10 + rdlen).ok_or(BAD_LENGTH)?;
        if i < u32::from(ancount) {
            match (rtype, rdata) {
                (1, &[a0, a1, a2, a3]) => a(Ipv4Addr::new(a0, a1, a2, a3)),
                (5, _) => {
                    walk_name(msg, pos + 10, |_| {})?;
                }
                _ => {}
            }
        }
        pos += 10 + rdlen;
    }
    Ok(())
}

/// The A-record addresses of the answer section of `msg`: exactly
/// `DnsMessage::parse(msg).map(|m| m.a_records())`, error included,
/// without building the message.
pub fn a_records(msg: &[u8]) -> Result<Vec<Ipv4Addr>, ParseError> {
    let [_, _, qdcount, ancount, nscount, arcount] = header(msg)?;
    let mut pos = 12;
    for _ in 0..qdcount {
        pos = question_end(msg, walk_name(msg, pos, |_| {})?)?;
    }
    let mut ips = Vec::new();
    walk_records(msg, pos, [ancount, nscount, arcount], |ip| ips.push(ip))?;
    Ok(ips)
}

/// A query read in place: what a responder needs to look its first
/// question up and to reply, decoded in one pass into stack buffers.
///
/// [`QueryView::parse`] accepts what [`DnsMessage::parse`] accepts, and
/// [`QueryView::answer_a`] and [`QueryView::error`] write the bytes
/// that [`DnsMessage::answer_a`] and [`DnsMessage::error`] followed by
/// [`DnsMessage::emit`] write, error included.
pub struct QueryView<'a> {
    msg: &'a [u8],
    id: u16,
    rd: bool,
    qdcount: u16,
    /// The first question's name, as [`Name::parse`] decodes it.
    name: Dotted,
    /// That name as [`DnsMessage::emit`] writes it (the root without a
    /// question): the owner of every answer record.
    owner: [u8; MAX_NAME_LEN + 1],
    /// The length of `owner`; `None` when the name cannot be emitted.
    owner_len: Option<usize>,
    /// The first question's type code.
    qtype: [u8; 2],
    /// Offset of the second question.
    rest: usize,
}

impl<'a> QueryView<'a> {
    /// Read `msg` as a query. `None` when [`DnsMessage::parse`] rejects
    /// it or it is a response: a responder answers neither.
    pub fn parse(msg: &'a [u8]) -> Option<QueryView<'a>> {
        let [id, flags, qdcount, ancount, nscount, arcount] = header(msg).ok()?;
        if flags & 0x8000 != 0 {
            return None;
        }
        let mut view = QueryView {
            msg,
            id,
            rd: flags & 0x0100 != 0,
            qdcount,
            name: Dotted::default(),
            owner: [0; MAX_NAME_LEN + 1],
            owner_len: Some(1),
            qtype: [0; 2],
            rest: 12,
        };
        let mut pos = 12;
        if qdcount > 0 {
            let end = walk_name(msg, pos, |label| view.name.push_label(label)).ok()?;
            pos = question_end(msg, end).ok()?;
            view.qtype = [msg[end], msg[end + 1]];
            view.owner_len = encode_dotted(view.name.as_str(), &mut view.owner).ok();
            view.rest = pos;
        }
        for _ in 1..qdcount {
            pos = question_end(msg, walk_name(msg, pos, |_| {}).ok()?).ok()?;
        }
        walk_records(msg, pos, [ancount, nscount, arcount], |_| {}).ok()?;
        Some(view)
    }

    /// The first question's name, lowercase dotted text as
    /// [`Name::as_str`] gives it; `None` when the query has no question.
    pub fn name(&self) -> Option<&str> {
        (self.qdcount > 0).then(|| self.name.as_str())
    }

    /// Append the response carrying `ips` as A records, as
    /// [`DnsMessage::answer_a`] builds it and [`DnsMessage::emit`]
    /// writes it. On error nothing is appended.
    pub fn answer_a(&self, ips: &[Ipv4Addr], ttl: u32, out: &mut Vec<u8>) -> Result<(), ParseError> {
        self.reply(Rcode::NoError, ips, ttl, out)
    }

    /// Append the `rcode` response, as [`DnsMessage::error`] builds it
    /// and [`DnsMessage::emit`] writes it. On error nothing is appended.
    pub fn error(&self, rcode: Rcode, out: &mut Vec<u8>) -> Result<(), ParseError> {
        self.reply(rcode, &[], 0, out)
    }

    fn reply(&self, rcode: Rcode, ips: &[Ipv4Addr], ttl: u32, out: &mut Vec<u8>) -> Result<(), ParseError> {
        let ancount = wire_u16(ips.len())?;
        let owner = &self.owner[..self.owner_len.ok_or(ParseError::BadName)?];
        let first = if self.qdcount > 0 { owner.len() + 4 } else { 0 };
        out.reserve_exact(12 + first + ips.len() * (owner.len() + 14));
        let start = out.len();
        let rd = if self.rd { 0x0100 } else { 0 };
        let flags = 0x8000 | rd | 0x0080 | u16::from(rcode.code() & 0x0f);
        for word in [self.id, flags, self.qdcount, ancount, 0, 0] {
            out.extend_from_slice(&word.to_be_bytes());
        }
        if self.qdcount > 0 {
            out.extend_from_slice(owner);
            out.extend_from_slice(&self.qtype);
            out.extend_from_slice(&1u16.to_be_bytes()); // class IN
        }
        if let Err(e) = self.emit_later_questions(out) {
            out.truncate(start);
            return Err(e);
        }
        for ip in ips {
            out.extend_from_slice(owner);
            out.extend_from_slice(&[0, 1, 0, 1]); // TYPE A, CLASS IN
            out.extend_from_slice(&ttl.to_be_bytes());
            out.extend_from_slice(&4u16.to_be_bytes());
            out.extend_from_slice(&ip.octets());
        }
        Ok(())
    }

    /// Append every question after the first, decoded and re-encoded
    /// as [`DnsMessage::emit`] writes them.
    fn emit_later_questions(&self, out: &mut Vec<u8>) -> Result<(), ParseError> {
        let mut pos = self.rest;
        for _ in 1..self.qdcount {
            let mut text = Dotted::default();
            let end = walk_name(self.msg, pos, |label| text.push_label(label))?;
            let mut wire = [0; MAX_NAME_LEN + 1];
            let len = encode_dotted(text.as_str(), &mut wire)?;
            out.extend_from_slice(&wire[..len]);
            out.extend_from_slice(self.msg.get(end..end + 2).ok_or(BAD_LENGTH)?);
            out.extend_from_slice(&1u16.to_be_bytes());
            pos = end + 4;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_normalizes_case_and_dot() {
        let n = Name::new("WWW.Example.COM.");
        assert_eq!(n.as_str(), "www.example.com");
        assert_eq!(n.wire_len(), Ok(17), "three labels behind length bytes, then the root");
    }

    #[test]
    fn query_roundtrip() {
        let q = DnsMessage::query_a(0x1234, "blocked.example.in");
        let mut out = Vec::new();
        q.emit(&mut out).unwrap();
        let parsed = DnsMessage::parse(&out).unwrap();
        assert_eq!(parsed, q);
    }

    #[test]
    fn answer_roundtrip_with_multiple_a() {
        let q = DnsMessage::query_a(7, "cdn.example.com");
        let ips = ["1.2.3.4".parse().unwrap(), "5.6.7.8".parse().unwrap()];
        let a = DnsMessage::answer_a(q, &ips, 300);
        let mut out = Vec::new();
        a.emit(&mut out).unwrap();
        let parsed = DnsMessage::parse(&out).unwrap();
        assert_eq!(parsed, a);
        assert_eq!(parsed.a_records(), ips);
    }

    #[test]
    fn nxdomain_roundtrip() {
        let q = DnsMessage::query_a(9, "gone.example.com");
        let e = DnsMessage::error(q, Rcode::NxDomain);
        let mut out = Vec::new();
        e.emit(&mut out).unwrap();
        let parsed = DnsMessage::parse(&out).unwrap();
        assert_eq!(parsed.flags.rcode, Rcode::NxDomain);
        assert!(parsed.answers.is_empty());
    }

    #[test]
    fn cname_roundtrip() {
        let q = DnsMessage::query_a(3, "www.example.com");
        let mut a = DnsMessage::answer_a(q, &["9.9.9.9".parse().unwrap()], 60);
        a.answers.insert(
            0,
            DnsRecord {
                name: Name::new("www.example.com"),
                ttl: 60,
                data: RecordData::Cname(Name::new("edge.cdn.example.net")),
            },
        );
        let mut out = Vec::new();
        a.emit(&mut out).unwrap();
        assert_eq!(DnsMessage::parse(&out).unwrap(), a);
    }

    #[test]
    fn parses_compressed_names() {
        // Hand-encode: query for a.b + answer whose name is a pointer to
        // offset 12 (the question name).
        let mut buf = vec![
            0x00, 0x01, 0x81, 0x80, // id, flags: response
            0x00, 0x01, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00,
        ];
        buf.extend_from_slice(&[1, b'a', 1, b'b', 0]); // "a.b" at offset 12
        buf.extend_from_slice(&[0, 1, 0, 1]); // qtype A, class IN
        buf.extend_from_slice(&[0xc0, 12]); // pointer to offset 12
        buf.extend_from_slice(&[0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 10, 0, 0, 1]);
        let msg = DnsMessage::parse(&buf).unwrap();
        assert_eq!(msg.questions[0].name.as_str(), "a.b");
        assert_eq!(msg.answers[0].name.as_str(), "a.b");
        assert_eq!(msg.a_records(), vec![Ipv4Addr::new(10, 0, 0, 1)]);
    }

    #[test]
    fn pointer_loop_is_rejected() {
        let mut buf = vec![0x00, 0x01, 0x01, 0x00, 0x00, 0x01, 0, 0, 0, 0, 0, 0];
        buf.extend_from_slice(&[0xc0, 12]); // points at itself
        buf.extend_from_slice(&[0, 1, 0, 1]);
        assert_eq!(DnsMessage::parse(&buf), Err(ParseError::BadName));
    }

    #[test]
    fn overlong_label_rejected_on_emit() {
        let long = "x".repeat(64);
        let q = DnsMessage::query_a(1, &format!("{long}.com"));
        let mut out = Vec::new();
        assert_eq!(q.emit(&mut out), Err(ParseError::BadName));
    }

    #[test]
    fn overlong_name_rejected_on_emit() {
        let label = "y".repeat(63);
        let name = [label.as_str(); 5].join(".");
        let q = DnsMessage::query_a(1, &name);
        let mut out = Vec::new();
        assert_eq!(q.emit(&mut out), Err(ParseError::BadName));
    }

    #[test]
    fn truncated_and_garbage_rejected() {
        assert!(DnsMessage::parse(&[0, 1, 2]).is_err());
        let q = DnsMessage::query_a(5, "ok.com");
        let mut out = Vec::new();
        q.emit(&mut out).unwrap();
        assert!(DnsMessage::parse(&out[..out.len() - 3]).is_err());
    }

    #[test]
    fn parse_skips_authority_and_additional() {
        // One answer + nscount 1: second record must be skipped, not parsed
        // into answers.
        let q = DnsMessage::query_a(2, "s.com");
        let a = DnsMessage::answer_a(q, &["1.1.1.1".parse().unwrap()], 30);
        let mut out = Vec::new();
        a.emit(&mut out).unwrap();
        // Patch NSCOUNT to 1 and append a minimal NS-ish record.
        out[8..10].copy_from_slice(&1u16.to_be_bytes());
        out.extend_from_slice(&[0]); // root name
        out.extend_from_slice(&[0, 2, 0, 1, 0, 0, 0, 10, 0, 1, b'x']);
        let parsed = DnsMessage::parse(&out).unwrap();
        assert_eq!(parsed.answers.len(), 1);
    }

    /// A response to `query_a(1, "q.example")` carrying `answers`.
    fn response_with(answers: Vec<DnsRecord>) -> DnsMessage {
        DnsMessage { answers, ..DnsMessage::answer_a(DnsMessage::query_a(1, "q.example"), &[], 60) }
    }

    #[test]
    fn wire_len_is_the_emitted_length() {
        let other = DnsRecord {
            name: Name::new(""),
            ttl: 5,
            data: RecordData::Other { rtype: 16, bytes: b"txt".to_vec() },
        };
        let cname = DnsRecord {
            name: Name::new("q.example"),
            ttl: 5,
            data: RecordData::Cname(Name::new("edge.cdn.example.net")),
        };
        let messages = [
            DnsMessage::query_a(1, "blocked.example.in"),
            DnsMessage::query_a(1, ""),
            DnsMessage::answer_a(DnsMessage::query_a(2, "a.b"), &[Ipv4Addr::LOCALHOST; 3], 9),
            DnsMessage::error(DnsMessage::query_a(3, "gone.example"), Rcode::NxDomain),
            response_with(vec![cname, other]),
        ];
        for msg in messages {
            let mut out = vec![0xaa];
            msg.emit(&mut out).unwrap();
            assert_eq!(msg.wire_len(), Ok(out.len() - 1), "{msg:?}");
        }
    }

    #[test]
    fn emit_rejects_counts_and_rdlengths_past_u16() {
        let big = DnsRecord {
            name: Name::new("q.example"),
            ttl: 5,
            data: RecordData::Other { rtype: 16, bytes: vec![7; 70_000] },
        };
        let too_long = Err(ParseError::BadLength { what: "dns" });
        let mut out = Vec::new();
        assert_eq!(response_with(vec![big]).emit(&mut out), too_long);
        assert!(out.is_empty(), "a failed emit appends nothing");
        let root = DnsQuestion { name: Name::new(""), qtype: DnsType::A };
        let mut many = DnsMessage::query_a(1, "");
        many.questions = vec![root; 65_536];
        assert_eq!(many.emit(&mut out), too_long);
        many.questions.pop();
        assert_eq!(many.emit(&mut out), Ok(()));
        assert_eq!(out[4..6], [0xff, 0xff]);
        let record = DnsRecord { name: Name::new(""), ttl: 5, data: RecordData::A(Ipv4Addr::LOCALHOST) };
        assert_eq!(response_with(vec![record; 65_536]).emit(&mut Vec::new()), too_long);
    }

    #[test]
    fn emit_rejects_empty_labels_but_not_the_root() {
        for dotted in ["a..b", ".a", "..a", "x.a..b."] {
            let mut out = Vec::new();
            assert_eq!(DnsMessage::query_a(1, dotted).emit(&mut out), Err(ParseError::BadName), "{dotted}");
            assert!(out.is_empty());
        }
        for root in ["", "."] {
            let mut out = Vec::new();
            DnsMessage::query_a(1, root).emit(&mut out).unwrap();
            assert_eq!(out[12..], [0, 0, 1, 0, 1], "the root is one zero byte");
        }
    }

    /// A one-question message whose question name is the raw `name`.
    fn with_wire_name(name: &[u8]) -> Vec<u8> {
        let mut buf = vec![0, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0];
        buf.extend_from_slice(name);
        buf.extend_from_slice(&[0, 1, 0, 1]);
        buf
    }

    #[test]
    fn wire_label_bytes_decode_as_lowercased_latin1() {
        for b in 0..=u8::MAX {
            let msg = DnsMessage::parse(&with_wire_name(&[2, b, b'X', 1, b'Z', 0])).unwrap();
            let c = char::from(b).to_ascii_lowercase();
            assert_eq!(msg.questions[0].name.as_str(), format!("{c}x.z"), "byte {b:#04x}");
        }
        let msg = DnsMessage::parse(&with_wire_name(&[4, b'A', 0xc9, 0xe9, 0xff, 0])).unwrap();
        assert_eq!(msg.questions[0].name.as_str(), "a\u{c9}\u{e9}\u{ff}");
    }

    #[test]
    fn names_may_hold_255_bytes_of_length_prefixed_labels() {
        // The limit counts each label and its length byte, not the
        // root's closing zero byte: three 63-byte labels and one of 62
        // make 255 and parse; a 63-byte fourth label makes 256.
        for (last, ok) in [(62, true), (63, false)] {
            let mut wire = Vec::new();
            for len in [63, 63, 63, last] {
                wire.push(len as u8);
                wire.resize(wire.len() + len, b'k');
            }
            wire.push(0);
            let parsed = DnsMessage::parse(&with_wire_name(&wire));
            assert_eq!(parsed.is_ok(), ok, "fourth label of {last}");
            if let Ok(msg) = parsed {
                assert_eq!(msg.questions[0].name.as_str().len(), 254);
                let mut out = Vec::new();
                msg.emit(&mut out).unwrap();
                assert_eq!(out, with_wire_name(&wire), "the longest name re-emits unchanged");
            } else {
                assert_eq!(parsed, Err(ParseError::BadName));
            }
        }
    }

    #[test]
    fn a_name_split_across_two_pointers_is_one_dotted_name() {
        // Question "a.b" at 12; a second question "x" + pointer to "b"
        // at 21; the answer is "y" + pointer to that second name.
        let mut buf = vec![0, 1, 0x81, 0x80, 0, 2, 0, 1, 0, 0, 0, 0];
        buf.extend_from_slice(&[1, b'a', 1, b'b', 0, 0, 1, 0, 1]); // 12..21
        buf.extend_from_slice(&[1, b'x', 0xc0, 14, 0, 1, 0, 1]); // 21..29
        buf.extend_from_slice(&[1, b'Y', 0xc0, 21]);
        buf.extend_from_slice(&[0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 10, 0, 0, 1]);
        let msg = DnsMessage::parse(&buf).unwrap();
        assert_eq!(msg.questions[1].name.as_str(), "x.b");
        assert_eq!(msg.answers[0].name.as_str(), "y.x.b");
        assert_eq!(msg.a_records(), vec![Ipv4Addr::new(10, 0, 0, 1)]);
    }

    #[test]
    fn wire_names_parse_case_insensitively() {
        let mut out = Vec::new();
        DnsMessage::query_a(1, "MiXeD.CoM").emit(&mut out).unwrap();
        let parsed = DnsMessage::parse(&out).unwrap();
        assert_eq!(parsed.questions[0].name.as_str(), "mixed.com");
    }

    /// The reply the message codec writes to `query` (`None`: it does
    /// not answer), with the answers `ips` or, when empty, NXDOMAIN.
    fn codec_reply(query: &[u8], ips: &[Ipv4Addr]) -> Option<Result<Vec<u8>, ParseError>> {
        let msg = DnsMessage::parse(query).ok().filter(|m| !m.flags.response)?;
        let reply =
            if ips.is_empty() { DnsMessage::error(msg, Rcode::NxDomain) } else { DnsMessage::answer_a(msg, ips, 300) };
        let mut out = Vec::new();
        Some(reply.emit(&mut out).map(|()| out))
    }

    /// The reply [`QueryView`] writes to `query`, as [`codec_reply`].
    fn view_reply(query: &[u8], ips: &[Ipv4Addr]) -> Option<Result<Vec<u8>, ParseError>> {
        let view = QueryView::parse(query)?;
        let mut out = Vec::new();
        let written = if ips.is_empty() { view.error(Rcode::NxDomain, &mut out) } else { view.answer_a(ips, 300, &mut out) };
        Some(written.map(|()| out))
    }

    #[test]
    fn the_query_view_replies_as_the_message_codec_does() {
        let two = [Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2)];
        let pointer = {
            // Question 1 is "x" + a pointer into question 2's "a.b".
            let mut q = vec![0, 9, 1, 0, 0, 2, 0, 0, 0, 0, 0, 0];
            q.extend_from_slice(&[1, b'X', 0xc0, 21, 0, 1, 0, 1]); // 12..20, pointer to 21
            q.push(0xff); // 20: a stray byte the pointer skips
            q.extend_from_slice(&[1, b'a', 1, b'B', 0, 0, 28, 0, 3]); // 21: AAAA, class CH
            q
        };
        let mut trailing = with_wire_name(&[3, b'W', b'w', b'W', 0]);
        trailing.extend_from_slice(b"junk");
        let mut empty = with_wire_name(&[]);
        empty.truncate(12);
        empty[5] = 0; // QDCOUNT 0
        let cases = [
            with_wire_name(b"\x07Blocked\x07EXAMPLE\x00"),
            pointer,
            trailing,
            empty,
            with_wire_name(&[2, 0xc9, b'a', 1, b'z', 0]), // a byte >= 0x80 re-emits as two
            with_wire_name(&[3, b'a', b'.', b'b', 0]), // a dot inside a label splits it
            with_wire_name(&[2, b'a', b'.', 1, b'b', 0]), // ... or leaves an empty label
            with_wire_name(&[63, 0xff, 0]), // truncated label
            with_wire_name(&[0xc0, 12]), // pointer loop
        ];
        for query in &cases {
            for ips in [&[][..], &two[..1], &two[..]] {
                assert_eq!(view_reply(query, ips), codec_reply(query, ips), "{query:?}");
            }
        }
        let mut response = with_wire_name(&[1, b'a', 0]);
        response[2] |= 0x80;
        assert!(view_reply(&response, &two).is_none());
    }

    #[test]
    fn a_records_match_the_message_codec_on_every_truncation() {
        let q = DnsMessage::query_a(3, "www.example.com");
        let mut a = DnsMessage::answer_a(q, &[Ipv4Addr::new(9, 9, 9, 9), Ipv4Addr::new(8, 8, 8, 8)], 60);
        a.answers.insert(
            1,
            DnsRecord {
                name: Name::new("www.example.com"),
                ttl: 60,
                data: RecordData::Cname(Name::new("edge.cdn.example.net")),
            },
        );
        let mut wire = Vec::new();
        a.emit(&mut wire).unwrap();
        wire[9] = 1; // ARCOUNT 1: an additional A record, not an answer
        wire.extend_from_slice(&[0, 0, 1, 0, 1, 0, 0, 0, 1, 0, 4, 7, 7, 7, 7]);
        for end in 0..=wire.len() {
            let reference = DnsMessage::parse(&wire[..end]).map(|m| m.a_records());
            assert_eq!(a_records(&wire[..end]), reference, "cut at {end}");
        }
        assert_eq!(a_records(&wire), Ok(vec![Ipv4Addr::new(9, 9, 9, 9), Ipv4Addr::new(8, 8, 8, 8)]));
    }
}
