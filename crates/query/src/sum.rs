//! Exact summation of doubles.
//!
//! The compiled engine folds aggregates in *batch* order (per source leaf),
//! the per-tuple engines in key order, a sharded query per shard and then
//! across shards — and a merge changes which records share a leaf. `f64`
//! addition is not associative, so a running `sum += x` would make the last
//! bits of every double `SUM`/`AVG` depend on the physical layout: two
//! engines, or the same query before and after a compaction, could disagree.
//!
//! [`ExactSum`] holds the running total without rounding (Shewchuk's
//! non-overlapping partials, the algorithm behind Python's `math.fsum`) and
//! rounds once, at the end, so the result is the correctly rounded sum of
//! the inputs — the same for every order and every way of splitting the
//! inputs into partial sums that are merged later. The one exception is the
//! usual one: if a running total leaves the `f64` range the result saturates
//! to an infinity (or NaN, when both infinities were met), as IEEE addition
//! does.

/// A sum of doubles that does not depend on the order of its inputs; see
/// the module docs.
#[derive(Debug, Clone, Default)]
pub(crate) struct ExactSum {
    /// Finite, non-overlapping, in increasing magnitude; their exact sum is
    /// the exact sum of every finite input. Rarely more than two or three.
    partials: Vec<f64>,
    /// The (IEEE) sum of the non-finite inputs and of any total that
    /// overflowed; decides the result once it is not zero.
    special: f64,
}

impl ExactSum {
    /// Add one input.
    pub(crate) fn add(&mut self, mut x: f64) {
        if !x.is_finite() {
            self.special += x;
            return;
        }
        let mut kept = 0;
        for i in 0..self.partials.len() {
            let mut y = self.partials[i];
            if x.abs() < y.abs() {
                std::mem::swap(&mut x, &mut y);
            }
            // Two-sum: hi + lo == x + y exactly.
            let hi = x + y;
            let lo = y - (hi - x);
            if lo != 0.0 {
                self.partials[kept] = lo;
                kept += 1;
            }
            x = hi;
        }
        self.partials.truncate(kept);
        if x.is_finite() {
            self.partials.push(x);
        } else {
            self.special += x;
            self.partials.clear();
        }
    }

    /// Add an integer exactly, however large (an `i128` holds any sum of
    /// `i64`s): 32-bit limbs are doubles without rounding.
    pub(crate) fn add_int(&mut self, v: i128) {
        let mut rest = v;
        let mut scale = 1.0;
        for limb in 0..4 {
            // The low limbs are non-negative; the sign stays in the top one.
            let part = if limb == 3 { rest } else { rest & 0xFFFF_FFFF };
            self.add(part as f64 * scale);
            rest >>= 32;
            scale *= 4_294_967_296.0;
        }
    }

    /// Add another sum (of a disjoint set of inputs).
    pub(crate) fn merge(&mut self, other: ExactSum) {
        self.special += other.special;
        for partial in other.partials {
            self.add(partial);
        }
    }

    /// The sum, rounded once to the nearest double (ties to even). Never
    /// `-0.0`, and a NaN is always the canonical one, so equal sums are
    /// equal bit for bit.
    pub(crate) fn finish(&self) -> f64 {
        if self.special.is_nan() {
            return f64::NAN;
        }
        if self.special != 0.0 {
            return self.special;
        }
        let mut rest = self.partials.iter().rev().copied();
        let Some(mut hi) = rest.next() else {
            return 0.0;
        };
        // Add the partials from the largest down until one no longer fits.
        let mut lo = 0.0;
        for y in rest.by_ref() {
            let x = hi;
            hi = x + y;
            lo = y - (hi - x);
            if lo != 0.0 {
                break;
            }
        }
        // `hi` is now within half an ulp of the sum. If what is left lies
        // exactly on that half and the partials below push the same way,
        // round-half-even went the wrong way: step once.
        if let Some(below) = rest.next() {
            if (lo < 0.0 && below < 0.0) || (lo > 0.0 && below > 0.0) {
                let twice = lo * 2.0;
                let stepped = hi + twice;
                if twice == stepped - hi {
                    hi = stepped;
                }
            }
        }
        hi + 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum_of(values: &[f64]) -> f64 {
        let mut sum = ExactSum::default();
        for v in values {
            sum.add(*v);
        }
        sum.finish()
    }

    #[test]
    fn the_result_is_the_correctly_rounded_sum() {
        // Ten 0.1s: the running sum gives 0.9999999999999999.
        assert_eq!(sum_of(&[0.1; 10]), 1.0);
        // The small terms survive a huge intermediate.
        assert_eq!(sum_of(&[1e100, 1.0, -1e100, 1e-100]), 1.0);
        // Half-even across partials: the 1e-16 tips the tie upwards.
        assert_eq!(sum_of(&[1e-16, 1.0, 1e16]), 1.0000000000000002e16);
        assert_eq!(sum_of(&[]), 0.0);
        assert!(sum_of(&[-0.0]).is_sign_positive());
    }

    #[test]
    fn order_and_grouping_do_not_show() {
        // A deterministic spread of magnitudes and signs.
        let values: Vec<f64> = (0..400u64)
            .map(|i| {
                let x = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64 / 9.007e15;
                let scaled = x * 10f64.powi((i % 13) as i32 - 6) + 20.0 + i as f64 * 0.1;
                if i % 3 == 0 {
                    -scaled
                } else {
                    scaled
                }
            })
            .collect();
        let forward = sum_of(&values);
        let mut reversed = values.clone();
        reversed.reverse();
        assert_eq!(sum_of(&reversed).to_bits(), forward.to_bits());
        // Split into partial sums (as leaves, shards do) and merge them.
        for width in [1, 7, 64, 399] {
            let mut merged = ExactSum::default();
            for chunk in values.chunks(width).rev() {
                let mut part = ExactSum::default();
                chunk.iter().for_each(|v| part.add(*v));
                merged.merge(part);
            }
            assert_eq!(
                merged.finish().to_bits(),
                forward.to_bits(),
                "width {width}"
            );
        }
        // The plain running sum does depend on the order, which is the point.
        let naive = |vs: &[f64]| vs.iter().fold(0.0, |acc, v| acc + v);
        assert_ne!(naive(&values).to_bits(), naive(&reversed).to_bits());
    }

    #[test]
    fn integers_are_added_exactly() {
        let mut sum = ExactSum::default();
        sum.add_int(i64::MAX as i128 * 3);
        sum.add_int(-(i64::MAX as i128) * 3 + 7);
        sum.add(0.5);
        assert_eq!(sum.finish(), 7.5);
        let mut negative = ExactSum::default();
        negative.add_int(-(1i128 << 100) - 1);
        negative.add_int(1i128 << 100);
        assert_eq!(negative.finish(), -1.0);
    }

    #[test]
    fn non_finite_inputs_decide_the_result() {
        assert_eq!(sum_of(&[1.0, f64::INFINITY, 2.0]), f64::INFINITY);
        assert!(sum_of(&[f64::INFINITY, 1.0, f64::NEG_INFINITY]).is_nan());
        assert_eq!(
            sum_of(&[f64::NEG_INFINITY, f64::NAN]).to_bits(),
            f64::NAN.to_bits()
        );
        // A total beyond the range saturates.
        assert_eq!(sum_of(&[f64::MAX, f64::MAX]), f64::INFINITY);
    }
}
