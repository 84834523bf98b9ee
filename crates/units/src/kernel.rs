//! The residue of a removed kernel-selection switch.

/// A single-valued kernel selector kept only so out-of-tree
/// `Reconfigurer` adapters that forward `set_kernel_mode` keep compiling.
/// Every compute kernel in this workspace has exactly one, bit-exact,
/// implementation; no workspace code reads or matches on this type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// The reference kernels, pinned bit for bit by golden traces.
    #[default]
    BitExact,
}
