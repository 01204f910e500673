//! Branchless, SIMD-shaped lane primitives shared by the hot kernels.
//!
//! The fused normalize/combine/stats walks used to take a branch per row
//! (`if defined { ... }`). On mostly-defined frames the branch is
//! predictable but still defeats the autovectorizer: a data-dependent
//! store inside the loop body keeps LLVM from turning the walk into
//! `f64x4` blocks. The primitives here restructure those walks into the
//! shape the autovectorizer provably takes:
//!
//! * [`select`] — a branch-free conditional move. Both arms are always
//!   evaluated, so callers must make the untaken arm side-effect-free
//!   (a neutral element: `0.0`, `+inf` for a min, `-inf` for a max).
//! * [`mask_word`] — eight validity bytes read as one little-endian
//!   `u64`, so a kernel can classify a whole 8-row block as all-defined
//!   ([`ALL_VALID_WORD`]), all-undefined (`0`) or mixed with a single
//!   integer compare, and only the mixed blocks pay per-lane selects.
//! * [`pack_word`] / [`unpack_word`] — a lane-mask word as one bit per
//!   lane and back, the bridge between byte masks and packed bit vectors.
//! * [`LANES`] / [`WORD_ROWS`] — the fixed widths the kernels unroll to:
//!   4 accumulator lanes (`f64x4`-shaped, one 256-bit vector register)
//!   and 8-row mask words, with scalar tails for the remainder.
//!
//! Everything here is *exact*: `select` is a move, not arithmetic, so a
//! kernel built from these primitives produces bit-identical results to
//! its branchy reference as long as the neutral elements are chosen so
//! the untaken arm cannot influence the result (the kernel property
//! tests assert exactly that, per lane remainder and NaN/±inf pattern).

/// Accumulator lanes the branchless kernels unroll to: `f64x4`, one
/// AVX2-width register, also a clean 2×2 pair on 128-bit NEON/SSE.
pub const LANES: usize = 4;

/// Rows per validity word: eight one-byte mask lanes per `u64`.
pub const WORD_ROWS: usize = 8;

/// The [`mask_word`] value of a fully-defined 8-row block (eight
/// little-endian `0x01` bytes).
pub const ALL_VALID_WORD: u64 = 0x0101_0101_0101_0101;

/// Branch-free conditional move: `if cond { then } else { otherwise }`
/// compiled as a select, not a jump. Both arms are unconditionally
/// evaluated — keep the untaken arm a neutral constant.
#[inline(always)]
pub fn select(cond: bool, then: f64, otherwise: f64) -> f64 {
    if cond {
        then
    } else {
        otherwise
    }
}

/// Eight validity bytes as one little-endian `u64` lane-mask word.
/// `mask` must hold at least [`WORD_ROWS`] entries; lane `i` contributes
/// byte `i` (`0x01` defined, `0x00` undefined), so a block is
/// all-defined iff the word equals [`ALL_VALID_WORD`] and all-undefined
/// iff it is zero.
#[inline(always)]
pub fn mask_word(mask: &[bool]) -> u64 {
    debug_assert!(mask.len() >= WORD_ROWS);
    let bytes: [u8; WORD_ROWS] = std::array::from_fn(|i| mask[i] as u8);
    u64::from_le_bytes(bytes)
}

/// A lane-mask word packed to one bit per lane (lane `i` in bit `i`):
/// the multiply moves byte `i`'s low bit to bit `56 + i`, and no two of
/// the 64 partial products share a position, so nothing carries.
#[inline(always)]
pub fn pack_word(word: u64) -> u8 {
    debug_assert_eq!(word & !ALL_VALID_WORD, 0);
    (word.wrapping_mul(0x0102_0408_1020_4080) >> 56) as u8
}

/// The lane-mask word of eight packed bits: the inverse of [`pack_word`].
#[inline(always)]
pub fn unpack_word(bits: u8) -> u64 {
    // byte `i` keeps bit `i` of its copy of `bits`; adding 0x7f carries a
    // nonzero byte into its own top bit (never beyond it)
    let own = (bits as u64).wrapping_mul(ALL_VALID_WORD) & 0x8040_2010_0804_0201;
    ((own + 0x7f7f_7f7f_7f7f_7f7f) >> 7) & ALL_VALID_WORD
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_is_exact_on_nan_and_inf() {
        let nan = f64::NAN;
        assert_eq!(select(true, nan, 0.0).to_bits(), nan.to_bits());
        assert_eq!(select(false, nan, 0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(select(true, f64::NEG_INFINITY, 1.0), f64::NEG_INFINITY);
        // -0.0 survives as -0.0 (a move, not an add)
        assert_eq!(select(true, -0.0, 1.0).to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn packed_words_round_trip() {
        for bits in 0..=u8::MAX {
            let lanes: [bool; WORD_ROWS] = std::array::from_fn(|i| bits >> i & 1 == 1);
            assert_eq!(unpack_word(bits), mask_word(&lanes));
            assert_eq!(pack_word(mask_word(&lanes)), bits);
        }
    }

    #[test]
    fn mask_words_classify_blocks() {
        assert_eq!(mask_word(&[true; 8]), ALL_VALID_WORD);
        assert_eq!(mask_word(&[false; 8]), 0);
        let mixed = [true, false, true, true, false, true, true, true];
        let w = mask_word(&mixed);
        assert_ne!(w, ALL_VALID_WORD);
        assert_ne!(w, 0);
        for (i, &m) in mixed.iter().enumerate() {
            assert_eq!((w >> (8 * i)) & 0xff == 1, m, "lane {i}");
        }
    }
}
