//! Arithmetic execution with built-in gold verification.
//!
//! Every served operation is computed twice through *independent*
//! code paths before a result leaves the server:
//!
//! * `mul` — Karatsuba ([`cim_bigint::mul::karatsuba`]) against
//!   schoolbook ([`cim_bigint::mul::schoolbook`]);
//! * `modexp` — the fixed-width Montgomery limb field
//!   ([`cim_modmul::fp`]) against Barrett reduction over [`Uint`];
//! * `ec_add` — Jacobian addition, checked commutatively and against
//!   the curve equation;
//! * `ec_mul` — double-and-add against the Montgomery ladder.
//!
//! A disagreement turns into a [`Response::Error`], never a wrong
//! `Ok` — the serving layer's correctness contract. Clients can
//! re-verify with [`OpExecutor::verify`], which recomputes one gold
//! path from scratch: schoolbook for `mul`, Barrett for `modexp`, the
//! ladder or a fresh addition for the curve operations. A served point
//! is compared with the recomputed one projectively, so the client
//! check never inverts.
//!
//! The pairs are independent in their algorithms, not always in their
//! arithmetic. `modexp`'s two reductions share nothing. The EC checks
//! (double-and-add against the ladder, commutativity plus the curve
//! equation) and the client's EC verify all run on one field layer,
//! [`cim_modmul::fp`]'s fixed-width Montgomery field, so they catch a
//! wrong group formula but not a wrong field operation. That layer is
//! checked against [`Uint`] arithmetic by its own tests, and the
//! served payloads of a fixed trace are pinned byte for byte
//! (`tests/responses_pinned.rs`).
//!
//! The executor holds [`Curve`] contexts, which are `Rc`-based and
//! hence `!Send`: the server gives each worker thread its own
//! executor instead of sharing one.
//!
//! [`Response::Error`]: crate::protocol::Response::Error

use crate::protocol::{EcPoint, Op, ResponsePayload};
use cim_bigint::Uint;
use cim_modmul::barrett::BarrettContext;
use cim_modmul::ec::{Curve, Point};
use cim_modmul::fields::FieldId;
use cim_modmul::fp::FpContext;
use cim_modmul::ModularReducer;
use cim_sched::validate_width;

/// Largest exponent (in bits) `modexp` serves; wider exponents are
/// rejected at validation instead of expanding into unbounded work.
pub const MAX_EXP_BITS: usize = 4096;

/// Largest scalar (in bits) `ec_mul` serves.
pub const MAX_SCALAR_BITS: usize = 512;

/// Whether a field has a serving curve for `ec_add` / `ec_mul`.
pub fn has_curve(field: FieldId) -> bool {
    matches!(field, FieldId::Bn254Base | FieldId::Bls12_381Base)
}

/// Cheap structural validation of an operation — everything the
/// dispatcher checks *before* spending admission tokens or farm
/// cycles. Deep checks (point on curve, gold agreement) happen in
/// [`OpExecutor::execute`].
///
/// # Errors
///
/// A human-readable reason the request can never be served.
pub fn validate(op: &Op) -> Result<(), String> {
    match op {
        Op::Mul { width, a, b } => {
            validate_width(*width).map_err(|e| e.to_string())?;
            if a.bit_len() > *width || b.bit_len() > *width {
                return Err(format!("operand wider than the declared {width}-bit class"));
            }
            Ok(())
        }
        Op::ModExp { exp, .. } => {
            if exp.bit_len() > MAX_EXP_BITS {
                return Err(format!(
                    "exponent of {} bits exceeds the {MAX_EXP_BITS}-bit limit",
                    exp.bit_len()
                ));
            }
            Ok(())
        }
        Op::EcAdd { field, .. } => {
            if !has_curve(*field) {
                return Err(format!("no serving curve over {}", field.label()));
            }
            Ok(())
        }
        Op::EcMul { field, k, .. } => {
            if !has_curve(*field) {
                return Err(format!("no serving curve over {}", field.label()));
            }
            if k.bit_len() > MAX_SCALAR_BITS {
                return Err(format!(
                    "scalar of {} bits exceeds the {MAX_SCALAR_BITS}-bit limit",
                    k.bit_len()
                ));
            }
            Ok(())
        }
    }
}

/// Per-thread arithmetic contexts for every field in the catalogue.
pub struct OpExecutor {
    fields: Vec<FpContext>,
    barrett: Vec<BarrettContext>,
    curves: Vec<Option<Curve>>,
}

impl OpExecutor {
    /// Builds contexts for all of [`FieldId::ALL`]. Construction does
    /// the Montgomery/Barrett precomputation once; `execute` calls are
    /// then allocation-light.
    pub fn new() -> Self {
        let fields = FieldId::ALL
            .iter()
            .map(|f| FpContext::new(f.modulus()).expect("catalogue moduli are odd, ≤ 384 bits"))
            .collect();
        let barrett = FieldId::ALL
            .iter()
            .map(|f| BarrettContext::new(f.modulus()).expect("catalogue moduli are valid"))
            .collect();
        let curves = FieldId::ALL
            .iter()
            .map(|f| match f {
                // The real curve equations: alt_bn128 is y² = x³ + 3,
                // BLS12-381 G1 is y² = x³ + 4.
                FieldId::Bn254Base => Some(
                    Curve::new(f.modulus(), Uint::zero(), Uint::from_u64(3))
                        .expect("alt_bn128 is non-singular"),
                ),
                FieldId::Bls12_381Base => {
                    Some(Curve::bls12_381_g1().expect("BLS12-381 G1 is non-singular"))
                }
                _ => None,
            })
            .collect();
        OpExecutor {
            fields,
            barrett,
            curves,
        }
    }

    /// The serving curve over `field`, if any.
    pub fn curve(&self, field: FieldId) -> Option<&Curve> {
        self.curves[field.code() as usize].as_ref()
    }

    fn decode_point(&self, curve: &Curve, p: &EcPoint) -> Result<Point, String> {
        if p.infinity {
            return Ok(Point::infinity());
        }
        curve
            .point(&p.x, &p.y)
            .ok_or_else(|| "point not on curve".to_string())
    }

    fn encode_point(&self, curve: &Curve, p: &Point) -> EcPoint {
        match curve.to_affine(p) {
            None => EcPoint::infinity(),
            Some((x, y)) => EcPoint::affine(x, y),
        }
    }

    /// Whether `served` is exactly the encoding of `expect`, decided
    /// without converting `expect` to affine: the identity must be
    /// [`EcPoint::infinity`] itself, and a finite point must have
    /// canonical coordinates (`x, y < p`) that decode on the curve to
    /// the same group element.
    fn encodes(&self, curve: &Curve, served: &EcPoint, expect: &Point) -> bool {
        if served.infinity {
            return *served == EcPoint::infinity() && expect.is_infinity();
        }
        let p = curve.modulus();
        served.x < *p
            && served.y < *p
            && curve
                .point(&served.x, &served.y)
                .is_some_and(|q| curve.points_equal(&q, expect))
    }

    /// `base^exp` mod the modulus of field `i`, on the limb field.
    fn pow_mod(&self, i: usize, base: &Uint, exp: &Uint) -> Uint {
        let f = &self.fields[i];
        f.to_uint(&f.pow(&f.from_uint(base), exp))
    }

    /// Computes `op` and cross-checks it against an independent
    /// implementation.
    ///
    /// # Errors
    ///
    /// A validation failure, an off-curve input point, or a gold
    /// disagreement (the latter indicates a bug and is surfaced, never
    /// silently served).
    pub fn execute(&self, op: &Op) -> Result<ResponsePayload, String> {
        validate(op)?;
        match op {
            Op::Mul { a, b, .. } => {
                let fast = cim_bigint::mul::karatsuba::mul(a, b);
                let gold = cim_bigint::mul::schoolbook::mul(a, b);
                if fast != gold {
                    return Err("gold mismatch: karatsuba vs schoolbook".to_string());
                }
                Ok(ResponsePayload::Value(fast))
            }
            Op::ModExp { field, base, exp } => {
                let i = field.code() as usize;
                let fast = self.pow_mod(i, base, exp);
                let gold = self.barrett[i].pow_mod(base, exp);
                if fast != gold {
                    return Err("gold mismatch: montgomery vs barrett".to_string());
                }
                Ok(ResponsePayload::Value(fast))
            }
            Op::EcAdd { field, p, q } => {
                let curve = self.curve(*field).expect("validated");
                let pp = self.decode_point(curve, p)?;
                let qq = self.decode_point(curve, q)?;
                let sum = curve.add(&pp, &qq);
                // Independent checks: the group is abelian, and every
                // affine result must satisfy the curve equation.
                let flipped = curve.add(&qq, &pp);
                if !curve.points_equal(&sum, &flipped) {
                    return Err("gold mismatch: ec_add not commutative".to_string());
                }
                let out = self.encode_point(curve, &sum);
                if !out.infinity && curve.point(&out.x, &out.y).is_none() {
                    return Err("gold mismatch: ec_add left the curve".to_string());
                }
                Ok(ResponsePayload::Point(out))
            }
            Op::EcMul { field, k, p } => {
                let curve = self.curve(*field).expect("validated");
                let pp = self.decode_point(curve, p)?;
                let fast = curve.scalar_mul(k, &pp);
                let gold = curve.scalar_mul_ladder(k, &pp);
                if !curve.points_equal(&fast, &gold) {
                    return Err("gold mismatch: double-and-add vs ladder".to_string());
                }
                Ok(ResponsePayload::Point(self.encode_point(curve, &fast)))
            }
        }
    }

    /// Client-side gold check: recomputes `op` through one independent
    /// reference path and compares with `payload`. Used by the load
    /// generator to verify every `Ok` response it receives.
    pub fn verify(&self, op: &Op, payload: &ResponsePayload) -> bool {
        match (op, payload) {
            (Op::Mul { a, b, .. }, ResponsePayload::Value(v)) => {
                cim_bigint::mul::schoolbook::mul(a, b) == *v
            }
            (Op::ModExp { field, base, exp }, ResponsePayload::Value(v)) => {
                self.barrett[field.code() as usize].pow_mod(base, exp) == *v
            }
            (Op::EcAdd { field, p, q }, ResponsePayload::Point(out)) => {
                let Some(curve) = self.curve(*field) else {
                    return false;
                };
                let (Ok(pp), Ok(qq)) = (self.decode_point(curve, p), self.decode_point(curve, q))
                else {
                    return false;
                };
                self.encodes(curve, out, &curve.add(&pp, &qq))
            }
            (Op::EcMul { field, k, p }, ResponsePayload::Point(out)) => {
                let Some(curve) = self.curve(*field) else {
                    return false;
                };
                let Ok(pp) = self.decode_point(curve, p) else {
                    return false;
                };
                self.encodes(curve, out, &curve.scalar_mul_ladder(k, &pp))
            }
            // Shape mismatch: a point for a scalar op or vice versa.
            _ => false,
        }
    }
}

impl Default for OpExecutor {
    fn default() -> Self {
        OpExecutor::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_bigint::rng::UintRng;

    #[test]
    fn mul_executes_and_verifies() {
        let exec = OpExecutor::new();
        let mut rng = UintRng::seeded(1);
        for _ in 0..5 {
            let op = Op::Mul {
                width: 256,
                a: rng.uniform(256),
                b: rng.uniform(256),
            };
            let out = exec.execute(&op).expect("mul must execute");
            assert!(exec.verify(&op, &out));
        }
    }

    #[test]
    fn modexp_executes_on_every_field() {
        let exec = OpExecutor::new();
        let mut rng = UintRng::seeded(2);
        for field in FieldId::ALL {
            let op = Op::ModExp {
                field,
                base: rng.below(&field.modulus()),
                exp: Uint::from_u64(65537),
            };
            let out = exec.execute(&op).expect("modexp must execute");
            assert!(exec.verify(&op, &out), "{}", field.label());
        }
    }

    #[test]
    fn montgomery_pow_matches_barrett_on_every_field() {
        let exec = OpExecutor::new();
        let mut rng = UintRng::seeded(26);
        let mut exps: Vec<Uint> = [0u64, 1, 2].into_iter().map(Uint::from_u64).collect();
        for k in [1, 63, 64, 255, 381, MAX_EXP_BITS] {
            exps.push(Uint::pow2(k).sub(&Uint::one()));
        }
        for bits in [17, 700, MAX_EXP_BITS] {
            exps.push(rng.uniform(bits));
        }
        for field in FieldId::ALL {
            let i = field.code() as usize;
            let m = field.modulus();
            // Requests may carry any base; both paths reduce it first.
            for base in [
                Uint::zero(),
                Uint::one(),
                m.sub(&Uint::one()),
                rng.below(&m),
                m.clone(),
                rng.uniform(2 * m.bit_len()),
            ] {
                for exp in &exps {
                    assert_eq!(
                        exec.pow_mod(i, &base, exp),
                        exec.barrett[i].pow_mod(&base, exp),
                        "{} base {base} exp bits {}",
                        field.label(),
                        exp.bit_len()
                    );
                }
            }
        }
    }

    #[test]
    fn ec_ops_on_both_curves() {
        let exec = OpExecutor::new();
        for field in [FieldId::Bn254Base, FieldId::Bls12_381Base] {
            let curve = exec.curve(field).expect("serving curve");
            let base = curve.find_point();
            let (x, y) = curve.to_affine(&base).expect("affine");
            let p = EcPoint::affine(x, y);
            let two = curve.to_affine(&curve.double(&base)).expect("2P affine");
            let q = EcPoint::affine(two.0, two.1);

            let add = Op::EcAdd {
                field,
                p: p.clone(),
                q: q.clone(),
            };
            let sum = exec.execute(&add).expect("ec_add must execute");
            assert!(exec.verify(&add, &sum), "{}", field.label());

            // P + 2P must equal 3P.
            let mul = Op::EcMul {
                field,
                k: Uint::from_u64(3),
                p: p.clone(),
            };
            let triple = exec.execute(&mul).expect("ec_mul must execute");
            assert!(exec.verify(&mul, &triple));
            assert_eq!(sum, triple, "P + 2P = 3P on {}", field.label());

            // P + (−P) is the identity.
            let neg = curve.to_affine(&curve.neg(&base)).expect("−P affine");
            let cancel = Op::EcAdd {
                field,
                p,
                q: EcPoint::affine(neg.0, neg.1),
            };
            match exec.execute(&cancel).expect("cancelling add") {
                ResponsePayload::Point(out) => assert!(out.infinity),
                other => panic!("expected a point, got {other:?}"),
            }
        }
    }

    #[test]
    fn verify_rejects_mutated_points() {
        let exec = OpExecutor::new();
        for field in [FieldId::Bn254Base, FieldId::Bls12_381Base] {
            let curve = exec.curve(field).expect("serving curve");
            let m = curve.modulus();
            let affine = |pt: &Point| {
                let (x, y) = curve.to_affine(pt).expect("finite");
                EcPoint::affine(x, y)
            };
            let base = curve.find_point();
            let p = affine(&base);
            let q = affine(&curve.double(&base));
            let ops = [
                Op::EcAdd {
                    field,
                    p: p.clone(),
                    q: q.clone(),
                },
                Op::EcMul {
                    field,
                    k: Uint::from_u64(5),
                    p: p.clone(),
                },
                Op::EcAdd {
                    field,
                    p: p.clone(),
                    q: affine(&curve.neg(&base)),
                },
            ];
            for op in &ops {
                let Ok(ResponsePayload::Point(out)) = exec.execute(op) else {
                    panic!("{op:?} must serve a point");
                };
                assert!(exec.verify(op, &ResponsePayload::Point(out.clone())));
                let mut mutants = Vec::new();
                if out.infinity {
                    mutants.push(EcPoint::affine(out.x.clone(), out.y.clone()));
                    for (x, y) in [(1, 0), (0, 1), (1, 1)] {
                        mutants.push(EcPoint {
                            infinity: true,
                            ..EcPoint::affine(Uint::from_u64(x), Uint::from_u64(y))
                        });
                    }
                    mutants.push(p.clone());
                } else {
                    mutants.push(EcPoint::affine(out.x.add(m), out.y.clone()));
                    mutants.push(EcPoint::affine(out.x.clone(), out.y.add(m)));
                    mutants.push(EcPoint::affine(out.x.add(m), out.y.add(m)));
                    mutants.push(EcPoint {
                        infinity: true,
                        ..out.clone()
                    });
                    mutants.push(EcPoint::infinity());
                    // A different on-curve point: the negation.
                    mutants.push(EcPoint::affine(out.x.clone(), m.sub(&out.y)));
                    mutants.push(if out == p { q.clone() } else { p.clone() });
                }
                for mutant in mutants {
                    assert!(
                        !exec.verify(op, &ResponsePayload::Point(mutant.clone())),
                        "{} accepted {mutant:?} for {op:?}",
                        field.label()
                    );
                }
            }
        }
    }

    #[test]
    fn off_curve_point_is_rejected() {
        let exec = OpExecutor::new();
        let bogus = EcPoint::affine(Uint::from_u64(7), Uint::from_u64(8));
        let op = Op::EcAdd {
            field: FieldId::Bn254Base,
            p: bogus,
            q: EcPoint::infinity(),
        };
        let err = exec.execute(&op).expect_err("off-curve point");
        assert!(err.contains("not on curve"), "{err}");
    }

    #[test]
    fn validation_rejects_structural_garbage() {
        // Width not a multiple of 4.
        assert!(validate(&Op::Mul {
            width: 30,
            a: Uint::one(),
            b: Uint::one()
        })
        .is_err());
        // Operand wider than its class.
        assert!(validate(&Op::Mul {
            width: 8,
            a: Uint::from_u64(1 << 20),
            b: Uint::one()
        })
        .is_err());
        // No curve over Goldilocks.
        assert!(validate(&Op::EcAdd {
            field: FieldId::Goldilocks,
            p: EcPoint::infinity(),
            q: EcPoint::infinity()
        })
        .is_err());
        // Oversized exponent.
        assert!(validate(&Op::ModExp {
            field: FieldId::Goldilocks,
            base: Uint::one(),
            exp: Uint::pow2(MAX_EXP_BITS + 1)
        })
        .is_err());
        // Oversized scalar.
        assert!(validate(&Op::EcMul {
            field: FieldId::Bn254Base,
            k: Uint::pow2(MAX_SCALAR_BITS + 1),
            p: EcPoint::infinity()
        })
        .is_err());
    }

    #[test]
    fn verify_rejects_wrong_answers() {
        let exec = OpExecutor::new();
        let op = Op::Mul {
            width: 64,
            a: Uint::from_u64(3),
            b: Uint::from_u64(5),
        };
        assert!(exec.verify(&op, &ResponsePayload::Value(Uint::from_u64(15))));
        assert!(!exec.verify(&op, &ResponsePayload::Value(Uint::from_u64(16))));
        // Shape mismatch is a failure, not a panic.
        assert!(!exec.verify(&op, &ResponsePayload::Point(EcPoint::infinity())));
    }
}
