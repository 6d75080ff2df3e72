//! The `cim-serve` wire protocol: versioned, length-prefixed binary
//! frames carrying arithmetic requests and responses.
//!
//! A frame is a little-endian `u32` payload length followed by the
//! payload:
//!
//! ```text
//! +-----+-----+---------+------+--------------------+
//! | 'C' | 'S' | version | kind | body …             |
//! +-----+-----+---------+------+--------------------+
//! ```
//!
//! Integers are little-endian; a [`Uint`] is a `u32` byte count
//! followed by its little-endian magnitude bytes (shortest form). The
//! `kind` byte distinguishes requests from the three response shapes.
//! All codes — frame kinds, op tags, shed reasons, field ids (see
//! [`FieldId`]) — are part of the versioned format and never
//! reassigned; unknown codes decode to a [`WireError`], never a panic,
//! because the server feeds this decoder untrusted bytes.

use cim_bigint::Uint;
use cim_modmul::fields::FieldId;
use std::error::Error;
use std::fmt;

/// Protocol magic, first two payload bytes of every frame.
pub const FRAME_MAGIC: [u8; 2] = *b"CS";

/// Current protocol version.
pub const PROTOCOL_VERSION: u8 = 1;

/// Upper bound on a sane payload (1 MiB) — a length prefix above this
/// is rejected before any allocation.
pub const MAX_PAYLOAD_LEN: usize = 1 << 20;

/// Decode/encode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than the header or a declared length requires.
    Truncated,
    /// The payload did not start with [`FRAME_MAGIC`].
    BadMagic,
    /// Version byte this implementation does not speak.
    UnsupportedVersion(u8),
    /// Unknown frame-kind byte.
    UnknownKind(u8),
    /// Unknown operation tag in a request body.
    UnknownOp(u8),
    /// Unknown field id in a request body.
    UnknownField(u8),
    /// Unknown shed-reason code in a response body.
    UnknownReason(u8),
    /// Declared payload length exceeds [`MAX_PAYLOAD_LEN`].
    PayloadTooLong(usize),
    /// Bytes left over after a complete message.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::BadMagic => write!(f, "payload does not start with CS magic"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::UnknownOp(t) => write!(f, "unknown operation tag {t}"),
            WireError::UnknownField(c) => write!(f, "unknown field id {c}"),
            WireError::UnknownReason(c) => write!(f, "unknown shed reason {c}"),
            WireError::PayloadTooLong(n) => write!(f, "payload length {n} exceeds limit"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
        }
    }
}

impl Error for WireError {}

/// An elliptic-curve point in affine coordinates (`infinity` encodes
/// the group identity; its `x`/`y` are ignored and sent as zero).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EcPoint {
    /// Affine x.
    pub x: Uint,
    /// Affine y.
    pub y: Uint,
    /// Whether this is the point at infinity.
    pub infinity: bool,
}

impl EcPoint {
    /// The group identity.
    pub fn infinity() -> Self {
        EcPoint {
            x: Uint::zero(),
            y: Uint::zero(),
            infinity: true,
        }
    }

    /// An affine point.
    pub fn affine(x: Uint, y: Uint) -> Self {
        EcPoint {
            x,
            y,
            infinity: false,
        }
    }
}

/// The operation class of a request — the label metrics and batching
/// key on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpKind {
    /// Raw wide multiplication.
    Mul,
    /// Modular exponentiation (the `modexp` precompile shape).
    ModExp,
    /// Elliptic-curve point addition (`ecadd`).
    EcAdd,
    /// Elliptic-curve scalar multiplication (`ecmul`).
    EcMul,
}

impl OpKind {
    /// All operation kinds.
    pub const ALL: [OpKind; 4] = [OpKind::Mul, OpKind::ModExp, OpKind::EcAdd, OpKind::EcMul];

    /// Stable label (metrics, reports).
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Mul => "mul",
            OpKind::ModExp => "modexp",
            OpKind::EcAdd => "ec_add",
            OpKind::EcMul => "ec_mul",
        }
    }
}

/// One arithmetic operation over the workspace's field catalogue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `a · b` at the given operand width class.
    Mul {
        /// Operand width class in bits (positive multiple of 4).
        width: usize,
        /// Left operand.
        a: Uint,
        /// Right operand.
        b: Uint,
    },
    /// `base^exp mod field`.
    ModExp {
        /// Field the exponentiation runs in.
        field: FieldId,
        /// Base.
        base: Uint,
        /// Exponent.
        exp: Uint,
    },
    /// `p + q` on the field's serving curve.
    EcAdd {
        /// Base field of the curve.
        field: FieldId,
        /// First point.
        p: EcPoint,
        /// Second point.
        q: EcPoint,
    },
    /// `k · p` on the field's serving curve.
    EcMul {
        /// Base field of the curve.
        field: FieldId,
        /// Scalar.
        k: Uint,
        /// Point.
        p: EcPoint,
    },
}

impl Op {
    /// This operation's class.
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Mul { .. } => OpKind::Mul,
            Op::ModExp { .. } => OpKind::ModExp,
            Op::EcAdd { .. } => OpKind::EcAdd,
            Op::EcMul { .. } => OpKind::EcMul,
        }
    }

    /// Operand width class this operation occupies on a tile: the
    /// explicit width for `mul`, the field's width otherwise.
    pub fn width(&self) -> usize {
        match self {
            Op::Mul { width, .. } => *width,
            Op::ModExp { field, .. } | Op::EcAdd { field, .. } | Op::EcMul { field, .. } => {
                field.width()
            }
        }
    }

    /// First-order number of full multiplier passes this operation
    /// costs the farm — the serving layer's unit of batched work.
    ///
    /// One modular multiplication is three multiplier passes
    /// (Montgomery steady state, matching [`cim_modmul::CimCost`]'s
    /// projection); a point doubling costs ~10 field muls and a point
    /// addition ~16 on the Jacobian formulas the executor runs.
    pub fn farm_passes(&self) -> u64 {
        fn popcount(x: &Uint) -> u64 {
            x.limbs().iter().map(|l| l.count_ones() as u64).sum()
        }
        match self {
            Op::Mul { .. } => 1,
            Op::ModExp { exp, .. } => {
                // Square-and-multiply: one squaring per exponent bit
                // plus one multiplication per set bit.
                3 * (exp.bit_len() as u64 + popcount(exp)).max(1)
            }
            Op::EcAdd { .. } => 3 * 16,
            Op::EcMul { k, .. } => 3 * (10 * k.bit_len() as u64 + 16 * popcount(k) + 16),
        }
    }
}

/// Why the server refused a request without serving it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The tenant's token bucket was empty (rate limit).
    RateLimited,
    /// The tenant's bounded queue was full (backpressure).
    QueueFull,
}

impl ShedReason {
    /// Stable label (metrics, reports).
    pub fn label(self) -> &'static str {
        match self {
            ShedReason::RateLimited => "rate_limited",
            ShedReason::QueueFull => "queue_full",
        }
    }

    fn code(self) -> u8 {
        match self {
            ShedReason::RateLimited => 0,
            ShedReason::QueueFull => 1,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(ShedReason::RateLimited),
            1 => Some(ShedReason::QueueFull),
            _ => None,
        }
    }
}

/// One client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen request id, echoed on the response.
    pub id: u64,
    /// Tenant index (the server's tenant table assigns semantics).
    pub tenant: u16,
    /// Virtual arrival cycle — the simulation clock all admission,
    /// batching and latency accounting runs on. Replaying the same
    /// stamped trace reproduces the same admission decisions.
    pub arrival_cycle: u64,
    /// The operation.
    pub op: Op,
}

/// What a successful response carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResponsePayload {
    /// A scalar result (`mul`, `modexp`).
    Value(Uint),
    /// A point result (`ec_add`, `ec_mul`).
    Point(EcPoint),
}

/// One server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Served: the verified result plus cycle-domain latency split.
    Ok {
        /// Echoed request id.
        id: u64,
        /// The verified result.
        result: ResponsePayload,
        /// Cycles between arrival and farm dispatch.
        queue_cycles: u64,
        /// Cycles between farm dispatch and completion.
        service_cycles: u64,
        /// Farm that served the batch.
        farm: u32,
    },
    /// Refused by admission control; the client may retry later.
    Shed {
        /// Echoed request id.
        id: u64,
        /// Why.
        reason: ShedReason,
    },
    /// The request was admitted but could not be served.
    Error {
        /// Echoed request id.
        id: u64,
        /// Human-readable cause.
        message: String,
    },
}

impl Response {
    /// The echoed request id.
    pub fn id(&self) -> u64 {
        match self {
            Response::Ok { id, .. } | Response::Shed { id, .. } | Response::Error { id, .. } => *id,
        }
    }
}

const KIND_REQUEST: u8 = 0;
const KIND_OK: u8 = 1;
const KIND_SHED: u8 = 2;
const KIND_ERROR: u8 = 3;
// Control plane (PR 8). New codes extend the space; 0–3 are never
// reassigned.
const KIND_HEALTH_PROBE: u8 = 4;
const KIND_HEALTH: u8 = 5;
const KIND_DIAG_PROBE: u8 = 6;
const KIND_DIAG: u8 = 7;

const OP_MUL: u8 = 0;
const OP_MODEXP: u8 = 1;
const OP_EC_ADD: u8 = 2;
const OP_EC_MUL: u8 = 3;

struct Writer(Vec<u8>);

impl Writer {
    fn new(kind: u8) -> Self {
        let mut w = Writer(Vec::with_capacity(64));
        w.0.extend_from_slice(&FRAME_MAGIC);
        w.0.push(PROTOCOL_VERSION);
        w.0.push(kind);
        w
    }

    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn uint(&mut self, v: &Uint) {
        let bytes = v.to_le_bytes();
        self.u32(bytes.len() as u32);
        self.0.extend_from_slice(&bytes);
    }

    fn point(&mut self, p: &EcPoint) {
        self.u8(p.infinity as u8);
        if p.infinity {
            self.uint(&Uint::zero());
            self.uint(&Uint::zero());
        } else {
            self.uint(&p.x);
            self.uint(&p.y);
        }
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.0.extend_from_slice(s.as_bytes());
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.bytes.len() - self.pos < n {
            return Err(WireError::Truncated);
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn uint(&mut self) -> Result<Uint, WireError> {
        let len = self.u32()? as usize;
        if len > MAX_PAYLOAD_LEN {
            return Err(WireError::PayloadTooLong(len));
        }
        Ok(Uint::from_le_bytes(self.take(len)?))
    }

    fn point(&mut self) -> Result<EcPoint, WireError> {
        let infinity = self.u8()? != 0;
        let x = self.uint()?;
        let y = self.uint()?;
        Ok(if infinity {
            EcPoint::infinity()
        } else {
            EcPoint::affine(x, y)
        })
    }

    fn str(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        if len > MAX_PAYLOAD_LEN {
            return Err(WireError::PayloadTooLong(len));
        }
        Ok(String::from_utf8_lossy(self.take(len)?).into_owned())
    }

    fn field(&mut self) -> Result<FieldId, WireError> {
        let code = self.u8()?;
        FieldId::from_code(code).ok_or(WireError::UnknownField(code))
    }

    fn finish(self) -> Result<(), WireError> {
        let left = self.bytes.len() - self.pos;
        if left == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(left))
        }
    }
}

/// Checks the `CS`+version header and returns the kind byte plus a
/// body reader.
fn open(payload: &[u8]) -> Result<(u8, Reader<'_>), WireError> {
    let mut r = Reader {
        bytes: payload,
        pos: 0,
    };
    if r.take(2)? != FRAME_MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = r.u8()?;
    if version != PROTOCOL_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let kind = r.u8()?;
    Ok((kind, r))
}

/// Encodes a request payload (no length prefix — see [`frame`]).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut w = Writer::new(KIND_REQUEST);
    w.u64(req.id);
    w.u16(req.tenant);
    w.u64(req.arrival_cycle);
    match &req.op {
        Op::Mul { width, a, b } => {
            w.u8(OP_MUL);
            w.u32(*width as u32);
            w.uint(a);
            w.uint(b);
        }
        Op::ModExp { field, base, exp } => {
            w.u8(OP_MODEXP);
            w.u8(field.code());
            w.uint(base);
            w.uint(exp);
        }
        Op::EcAdd { field, p, q } => {
            w.u8(OP_EC_ADD);
            w.u8(field.code());
            w.point(p);
            w.point(q);
        }
        Op::EcMul { field, k, p } => {
            w.u8(OP_EC_MUL);
            w.u8(field.code());
            w.uint(k);
            w.point(p);
        }
    }
    w.0
}

/// Decodes a request payload.
///
/// # Errors
///
/// Any [`WireError`] for malformed, truncated or foreign bytes.
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let (kind, mut r) = open(payload)?;
    if kind != KIND_REQUEST {
        return Err(WireError::UnknownKind(kind));
    }
    let id = r.u64()?;
    let tenant = r.u16()?;
    let arrival_cycle = r.u64()?;
    let tag = r.u8()?;
    let op = match tag {
        OP_MUL => {
            let width = r.u32()? as usize;
            let a = r.uint()?;
            let b = r.uint()?;
            Op::Mul { width, a, b }
        }
        OP_MODEXP => {
            let field = r.field()?;
            let base = r.uint()?;
            let exp = r.uint()?;
            Op::ModExp { field, base, exp }
        }
        OP_EC_ADD => {
            let field = r.field()?;
            let p = r.point()?;
            let q = r.point()?;
            Op::EcAdd { field, p, q }
        }
        OP_EC_MUL => {
            let field = r.field()?;
            let k = r.uint()?;
            let p = r.point()?;
            Op::EcMul { field, k, p }
        }
        other => return Err(WireError::UnknownOp(other)),
    };
    r.finish()?;
    Ok(Request {
        id,
        tenant,
        arrival_cycle,
        op,
    })
}

/// Encodes a response payload (no length prefix — see [`frame`]).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    match resp {
        Response::Ok {
            id,
            result,
            queue_cycles,
            service_cycles,
            farm,
        } => {
            let mut w = Writer::new(KIND_OK);
            w.u64(*id);
            w.u64(*queue_cycles);
            w.u64(*service_cycles);
            w.u32(*farm);
            match result {
                ResponsePayload::Value(v) => {
                    w.u8(0);
                    w.uint(v);
                }
                ResponsePayload::Point(p) => {
                    w.u8(1);
                    w.point(p);
                }
            }
            w.0
        }
        Response::Shed { id, reason } => {
            let mut w = Writer::new(KIND_SHED);
            w.u64(*id);
            w.u8(reason.code());
            w.0
        }
        Response::Error { id, message } => {
            let mut w = Writer::new(KIND_ERROR);
            w.u64(*id);
            w.str(message);
            w.0
        }
    }
}

/// Decodes a response payload.
///
/// # Errors
///
/// Any [`WireError`] for malformed, truncated or foreign bytes.
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    let (kind, mut r) = open(payload)?;
    let resp = match kind {
        KIND_OK => {
            let id = r.u64()?;
            let queue_cycles = r.u64()?;
            let service_cycles = r.u64()?;
            let farm = r.u32()?;
            let result = match r.u8()? {
                0 => ResponsePayload::Value(r.uint()?),
                1 => ResponsePayload::Point(r.point()?),
                other => return Err(WireError::UnknownOp(other)),
            };
            Response::Ok {
                id,
                result,
                queue_cycles,
                service_cycles,
                farm,
            }
        }
        KIND_SHED => {
            let id = r.u64()?;
            let code = r.u8()?;
            let reason = ShedReason::from_code(code).ok_or(WireError::UnknownReason(code))?;
            Response::Shed { id, reason }
        }
        KIND_ERROR => {
            let id = r.u64()?;
            let message = r.str()?;
            Response::Error { id, message }
        }
        other => return Err(WireError::UnknownKind(other)),
    };
    r.finish()?;
    Ok(resp)
}

/// A control-plane request: diagnostics, not arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlRequest {
    /// Ask the server for its health summary.
    HealthProbe,
    /// Ask the server to dump its flight-recorder journal.
    DiagnosticsDump,
}

/// A control-plane response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlResponse {
    /// Health summary: SLO-style state plus cumulative counters.
    Health {
        /// 0 = ok, 1 = warn, 2 = page (a latched flight-recorder
        /// trigger reports as 2).
        state: u8,
        /// Requests submitted.
        submitted: u64,
        /// Requests served.
        served: u64,
        /// Requests shed.
        shed: u64,
        /// Requests errored.
        errors: u64,
        /// Flight-recorder events ever recorded.
        journal_events: u64,
        /// Flight-recorder events overwritten by the ring.
        journal_dropped: u64,
    },
    /// The flight-recorder journal as deterministic JSON.
    Diagnostics {
        /// Journal dump (see `cim_obs::FlightRecorder::dump_json`).
        json: String,
    },
}

/// Whether a decoded payload's kind byte is a control-plane frame.
/// Lets a dispatcher route without attempting a full request decode.
pub fn is_control_payload(payload: &[u8]) -> bool {
    payload.len() > 3 && (KIND_HEALTH_PROBE..=KIND_DIAG).contains(&payload[3])
}

/// Encodes a control request payload (no length prefix — see
/// [`frame`]).
pub fn encode_control_request(req: &ControlRequest) -> Vec<u8> {
    let kind = match req {
        ControlRequest::HealthProbe => KIND_HEALTH_PROBE,
        ControlRequest::DiagnosticsDump => KIND_DIAG_PROBE,
    };
    Writer::new(kind).0
}

/// Decodes a control request payload.
///
/// # Errors
///
/// Any [`WireError`] for malformed, truncated or foreign bytes.
pub fn decode_control_request(payload: &[u8]) -> Result<ControlRequest, WireError> {
    let (kind, r) = open(payload)?;
    let req = match kind {
        KIND_HEALTH_PROBE => ControlRequest::HealthProbe,
        KIND_DIAG_PROBE => ControlRequest::DiagnosticsDump,
        other => return Err(WireError::UnknownKind(other)),
    };
    r.finish()?;
    Ok(req)
}

/// Encodes a control response payload (no length prefix — see
/// [`frame`]).
pub fn encode_control_response(resp: &ControlResponse) -> Vec<u8> {
    match resp {
        ControlResponse::Health {
            state,
            submitted,
            served,
            shed,
            errors,
            journal_events,
            journal_dropped,
        } => {
            let mut w = Writer::new(KIND_HEALTH);
            w.u8(*state);
            w.u64(*submitted);
            w.u64(*served);
            w.u64(*shed);
            w.u64(*errors);
            w.u64(*journal_events);
            w.u64(*journal_dropped);
            w.0
        }
        ControlResponse::Diagnostics { json } => {
            let mut w = Writer::new(KIND_DIAG);
            w.str(json);
            w.0
        }
    }
}

/// Decodes a control response payload.
///
/// # Errors
///
/// Any [`WireError`] for malformed, truncated or foreign bytes.
pub fn decode_control_response(payload: &[u8]) -> Result<ControlResponse, WireError> {
    let (kind, mut r) = open(payload)?;
    let resp = match kind {
        KIND_HEALTH => ControlResponse::Health {
            state: r.u8()?,
            submitted: r.u64()?,
            served: r.u64()?,
            shed: r.u64()?,
            errors: r.u64()?,
            journal_events: r.u64()?,
            journal_dropped: r.u64()?,
        },
        KIND_DIAG => ControlResponse::Diagnostics { json: r.str()? },
        other => return Err(WireError::UnknownKind(other)),
    };
    r.finish()?;
    Ok(resp)
}

/// Prepends the `u32` little-endian length prefix to a payload.
pub fn frame(payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// A complete frame split off a byte stream: `(payload, rest)`, or
/// `None` when the stream does not yet hold a whole frame.
pub type Framed<'a> = Option<(&'a [u8], &'a [u8])>;

/// Splits one length-prefixed frame off the front of `bytes`,
/// returning the payload and the remaining bytes; `None` when `bytes`
/// does not yet hold a complete frame.
///
/// # Errors
///
/// [`WireError::PayloadTooLong`] when the prefix exceeds
/// [`MAX_PAYLOAD_LEN`] (a corrupt or hostile stream).
pub fn deframe(bytes: &[u8]) -> Result<Framed<'_>, WireError> {
    if bytes.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")) as usize;
    if len > MAX_PAYLOAD_LEN {
        return Err(WireError::PayloadTooLong(len));
    }
    if bytes.len() < 4 + len {
        return Ok(None);
    }
    Ok(Some((&bytes[4..4 + len], &bytes[4 + len..])))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request {
                id: 7,
                tenant: 0,
                arrival_cycle: 1234,
                op: Op::Mul {
                    width: 256,
                    a: Uint::from_u64(0xDEAD_BEEF),
                    b: Uint::from_decimal("340282366920938463463374607431768211297")
                        .expect("valid constant"),
                },
            },
            Request {
                id: u64::MAX,
                tenant: 65535,
                arrival_cycle: 0,
                op: Op::ModExp {
                    field: FieldId::Bn254Base,
                    base: Uint::from_u64(3),
                    exp: Uint::from_u64(65537),
                },
            },
            Request {
                id: 0,
                tenant: 1,
                arrival_cycle: u64::MAX,
                op: Op::EcAdd {
                    field: FieldId::Bls12_381Base,
                    p: EcPoint::affine(Uint::from_u64(1), Uint::from_u64(2)),
                    q: EcPoint::infinity(),
                },
            },
            Request {
                id: 42,
                tenant: 3,
                arrival_cycle: 99,
                op: Op::EcMul {
                    field: FieldId::Bn254Base,
                    k: Uint::from_u64(255),
                    p: EcPoint::affine(Uint::zero(), Uint::from_u64(9)),
                },
            },
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Ok {
                id: 9,
                result: ResponsePayload::Value(Uint::from_u64(81)),
                queue_cycles: 5,
                service_cycles: 5000,
                farm: 3,
            },
            Response::Ok {
                id: 10,
                result: ResponsePayload::Point(EcPoint::infinity()),
                queue_cycles: 0,
                service_cycles: 1,
                farm: 0,
            },
            Response::Shed {
                id: 11,
                reason: ShedReason::RateLimited,
            },
            Response::Shed {
                id: 12,
                reason: ShedReason::QueueFull,
            },
            Response::Error {
                id: 13,
                message: "point not on curve".into(),
            },
        ]
    }

    fn sample_control_responses() -> Vec<ControlResponse> {
        vec![
            ControlResponse::Health {
                state: 2,
                submitted: 100,
                served: 80,
                shed: 19,
                errors: 1,
                journal_events: 512,
                journal_dropped: 12,
            },
            ControlResponse::Diagnostics {
                json: "{\"events\":[]}".to_string(),
            },
        ]
    }

    const CONTROL_REQUESTS: [ControlRequest; 2] =
        [ControlRequest::HealthProbe, ControlRequest::DiagnosticsDump];

    /// The payload of every sample message.
    fn sample_payloads() -> Vec<Vec<u8>> {
        let mut out: Vec<Vec<u8>> = sample_requests().iter().map(encode_request).collect();
        out.extend(sample_responses().iter().map(encode_response));
        out.extend(CONTROL_REQUESTS.iter().map(encode_control_request));
        out.extend(
            sample_control_responses()
                .iter()
                .map(encode_control_response),
        );
        out
    }

    /// Feeds `bytes` to every decoder and returns whether any accepted
    /// it. Each must return an error or a value that survives its own
    /// encode/decode round trip; a panic fails the test. The value
    /// need not re-encode to `bytes`: non-canonical inputs (an
    /// infinity flag other than 1, leading zero bytes in a `Uint`,
    /// invalid UTF-8 in a message) decode to their canonical value.
    fn decoders_are_total(bytes: &[u8]) -> bool {
        fn round_trips<T: PartialEq + fmt::Debug>(
            bytes: &[u8],
            decode: fn(&[u8]) -> Result<T, WireError>,
            encode: fn(&T) -> Vec<u8>,
        ) -> bool {
            let Ok(v) = decode(bytes) else { return false };
            assert_eq!(decode(&encode(&v)).as_ref(), Ok(&v), "input {bytes:02x?}");
            true
        }
        // `|` rather than `||`: every decoder sees every input.
        round_trips(bytes, decode_request, encode_request)
            | round_trips(bytes, decode_response, encode_response)
            | round_trips(bytes, decode_control_request, encode_control_request)
            | round_trips(bytes, decode_control_response, encode_control_response)
    }

    #[test]
    fn requests_round_trip() {
        for req in sample_requests() {
            let bytes = encode_request(&req);
            assert_eq!(decode_request(&bytes).expect("round trip"), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in sample_responses() {
            let bytes = encode_response(&resp);
            assert_eq!(decode_response(&bytes).expect("round trip"), resp);
        }
    }

    #[test]
    fn framing_round_trips_and_handles_partials() {
        let req = &sample_requests()[0];
        let framed = frame(encode_request(req));
        // Complete frame splits exactly.
        let (payload, rest) = deframe(&framed).expect("sane length").expect("complete");
        assert_eq!(decode_request(payload).expect("payload decodes"), *req);
        assert!(rest.is_empty());
        // Any prefix is "not yet complete", never an error.
        for cut in 0..framed.len() {
            assert_eq!(deframe(&framed[..cut]).expect("sane length"), None);
        }
        // Two frames back to back split one at a time.
        let mut two = framed.clone();
        two.extend_from_slice(&framed);
        let (first, rest) = deframe(&two).expect("sane").expect("complete");
        assert_eq!(first.len(), framed.len() - 4);
        assert_eq!(rest, &framed[..]);
    }

    #[test]
    fn hostile_inputs_error_not_panic() {
        assert_eq!(decode_request(&[]), Err(WireError::Truncated));
        assert_eq!(decode_request(b"XX\x01\x00"), Err(WireError::BadMagic));
        assert_eq!(
            decode_request(b"CS\x09\x00"),
            Err(WireError::UnsupportedVersion(9))
        );
        assert_eq!(
            decode_response(b"CS\x01\x77"),
            Err(WireError::UnknownKind(0x77))
        );
        // Oversized length prefix rejected before allocation.
        let huge = (u32::MAX).to_le_bytes();
        assert_eq!(
            deframe(&huge),
            Err(WireError::PayloadTooLong(u32::MAX as usize))
        );
        // A valid request with trailing garbage is rejected.
        let mut bytes = encode_request(&sample_requests()[0]);
        bytes.push(0);
        assert_eq!(decode_request(&bytes), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn every_truncation_of_every_sample_errors() {
        for payload in sample_payloads() {
            for cut in 0..payload.len() {
                let prefix = &payload[..cut];
                assert!(!decoders_are_total(prefix), "prefix {prefix:02x?} decodes");
            }
        }
    }

    #[test]
    fn every_single_bit_flip_of_every_sample_is_total() {
        for payload in sample_payloads() {
            for bit in 0..payload.len() * 8 {
                let mut flipped = payload.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                decoders_are_total(&flipped);
            }
        }
    }

    #[test]
    fn non_canonical_encodings_decode_to_canonical_values() {
        // An `Ok` response up to its result tag.
        let ok_with = |tag: u8| {
            let mut w = Writer::new(KIND_OK);
            w.u64(1);
            w.u64(2);
            w.u64(3);
            w.u32(4);
            w.u8(tag);
            w
        };
        let ok = |result| Response::Ok {
            id: 1,
            result,
            queue_cycles: 2,
            service_cycles: 3,
            farm: 4,
        };
        // Infinity flag 2 with non-zero coordinates is the identity.
        let mut infinity = ok_with(1);
        infinity.u8(2);
        infinity.uint(&Uint::from_u64(5));
        infinity.uint(&Uint::from_u64(6));
        // A `Uint` with zero high bytes.
        let mut padded = ok_with(0);
        padded.u32(3);
        padded.0.extend_from_slice(&[9, 0, 0]);
        // A message that is not UTF-8.
        let mut lossy = Writer::new(KIND_ERROR);
        lossy.u64(7);
        lossy.u32(2);
        lossy.0.extend_from_slice(&[0xff, 0xfe]);
        let cases = [
            (infinity, ok(ResponsePayload::Point(EcPoint::infinity()))),
            (padded, ok(ResponsePayload::Value(Uint::from_u64(9)))),
            (
                lossy,
                Response::Error {
                    id: 7,
                    message: "\u{fffd}\u{fffd}".into(),
                },
            ),
        ];
        for (w, canonical) in cases {
            assert_eq!(decode_response(&w.0), Ok(canonical));
            assert!(decoders_are_total(&w.0));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn random_bytes_never_panic_a_decoder(
            bytes in prop::collection::vec(any::<u8>(), 0..=64),
        ) {
            decoders_are_total(&bytes);
        }

        /// Random bodies behind a valid header reach every kind's body
        /// parser instead of stopping at the magic check.
        #[test]
        fn random_bodies_never_panic_a_decoder(
            kind in 0u8..9,
            body in prop::collection::vec(any::<u8>(), 0..=60),
        ) {
            let mut bytes = vec![FRAME_MAGIC[0], FRAME_MAGIC[1], PROTOCOL_VERSION, kind];
            bytes.extend_from_slice(&body);
            decoders_are_total(&bytes);
        }
    }

    #[test]
    fn control_frames_round_trip() {
        for req in CONTROL_REQUESTS {
            let bytes = encode_control_request(&req);
            assert!(is_control_payload(&bytes));
            assert_eq!(decode_control_request(&bytes).unwrap(), req);
            // Control frames are not data requests and vice versa.
            assert!(matches!(
                decode_request(&bytes),
                Err(WireError::UnknownKind(_))
            ));
        }
        for resp in sample_control_responses() {
            let bytes = encode_control_response(&resp);
            assert!(is_control_payload(&bytes));
            assert_eq!(decode_control_response(&bytes).unwrap(), resp);
        }
        // Data frames are not control frames.
        assert!(!is_control_payload(&encode_request(&sample_requests()[0])));
        assert!(!is_control_payload(&[]));
        // Hostile control bytes error, never panic.
        assert!(
            decode_control_request(b"CS\x01\x05").is_err(),
            "response kind"
        );
        assert!(
            decode_control_response(b"CS\x01\x04").is_err(),
            "request kind"
        );
        let mut trailing = encode_control_request(&ControlRequest::HealthProbe);
        trailing.push(9);
        assert_eq!(
            decode_control_request(&trailing),
            Err(WireError::TrailingBytes(1))
        );
    }

    #[test]
    fn farm_passes_model() {
        let mul = Op::Mul {
            width: 256,
            a: Uint::one(),
            b: Uint::one(),
        };
        assert_eq!(mul.farm_passes(), 1);
        // 65537 = 2^16 + 1: 17 bits, 2 set bits → 3·19 passes.
        let exp = Op::ModExp {
            field: FieldId::Bn254Base,
            base: Uint::from_u64(2),
            exp: Uint::from_u64(65537),
        };
        assert_eq!(exp.farm_passes(), 3 * 19);
        let add = Op::EcAdd {
            field: FieldId::Bn254Base,
            p: EcPoint::infinity(),
            q: EcPoint::infinity(),
        };
        assert_eq!(add.farm_passes(), 48);
        // Larger scalars cost more.
        let small = Op::EcMul {
            field: FieldId::Bn254Base,
            k: Uint::from_u64(3),
            p: EcPoint::infinity(),
        };
        let large = Op::EcMul {
            field: FieldId::Bn254Base,
            k: Uint::from_u64(u64::MAX),
            p: EcPoint::infinity(),
        };
        assert!(large.farm_passes() > small.farm_passes());
        // Width classes: mul carries its own, field ops use the field.
        assert_eq!(mul.width(), 256);
        assert_eq!(exp.width(), 256, "BN254 base is 254 bits → class 256");
    }
}
