//! Runtime vector-ISA dispatch shared by every hot kernel in the workspace.
//!
//! A kernel is written once as an `#[inline(always)]` generic body. On
//! x86-64, [`wide_pair!`](crate::wide_pair) re-instantiates that body inside
//! `#[target_feature]` wrappers, which recompiles it with 512-bit (AVX-512F)
//! or 256-bit (AVX2) vector units enabled; the baseline build only assumes
//! SSE2. [`dispatch_wide!`](crate::dispatch_wide) picks the widest variant
//! the host supports at run time, never at compile time, so the binary stays
//! portable. The arithmetic is unchanged — identical operations in identical
//! order, and Rust never contracts `a * b + c` into an FMA — so every variant
//! is bit-identical to the generic body.
//!
//! Usage: the calling module defines a `#[cfg(target_arch = "x86_64")] mod
//! wide` holding one `wide_pair!` per kernel, and the public entry point
//! tail-calls `dispatch_wide!`. Both macros resolve their paths at the call
//! site (`wide::…` and `super::…`).

/// Routes a call to the widest vector ISA the host supports: the `wide`
/// module's AVX-512F or AVX2 instantiation, else the generic body.
///
/// Must be the last expression of the calling function: the x86-64
/// branches `return` early. The arguments are plain identifiers, so no
/// caller expression is evaluated inside the `unsafe` block. The cost is one
/// cached CPUID lookup per call.
#[macro_export]
macro_rules! dispatch_wide {
    ($avx512:ident, $avx2:ident, $generic:ident, $($arg:ident),+) => {{
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: the runtime check above guarantees avx512f.
                return unsafe { wide::$avx512($($arg),+) };
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: the runtime check above guarantees avx2.
                return unsafe { wide::$avx2($($arg),+) };
            }
        }
        $generic($($arg),+)
    }};
}

/// Defines the AVX-512F and AVX2 instantiations of the generic body
/// `super::$generic` for [`dispatch_wide!`](crate::dispatch_wide). Invoke it
/// inside the caller's `wide` module.
#[macro_export]
macro_rules! wide_pair {
    ($avx512:ident, $avx2:ident, $generic:ident, ($($arg:ident: $ty:ty),+)) => {
        #[target_feature(enable = "avx512f")]
        #[allow(clippy::too_many_arguments)]
        pub(super) fn $avx512($($arg: $ty),+) {
            super::$generic($($arg),+)
        }
        #[target_feature(enable = "avx2")]
        #[allow(clippy::too_many_arguments)]
        pub(super) fn $avx2($($arg: $ty),+) {
            super::$generic($($arg),+)
        }
    };
}
