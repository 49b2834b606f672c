//! The synchronization seam: one set of type names the runtime
//! protocols are written against, with two implementations selected at
//! compile time.
//!
//! * **Real builds** (default): `#[repr(transparent)]` `#[inline]`
//!   passthrough newtypes over `std::sync` — no dyn dispatch, no extra
//!   state, no allocation; the optimizer sees straight through them
//!   (the release zero-alloc pin in `mpdata` runs with this seam
//!   compiled in). [`ord`] compiles to its `default` argument.
//! * **Model builds** (`--features model`): the shim primitives from
//!   `islands-modelcheck`, which route every operation through the
//!   bounded exhaustive-interleaving checker when running on a model
//!   thread and fall back to the real primitive otherwise — so the
//!   regular unit tests keep passing under `--features model` too.
//!   [`ord`] consults the checker's weaken-override map, which is how
//!   the ordering-minimality matrix swaps a single named site one step
//!   weaker without recompiling.
//!
//! Every protocol `Ordering::` site goes through [`ord`] with a stable
//! `"file.site-name"` label; the labels double as the row names of the
//! minimality matrix (`modelcheck_suite::matrix`).

pub(crate) use imp::*;

#[cfg(not(feature = "model"))]
mod imp {
    use std::sync::atomic::Ordering;

    /// Real-build ordering resolution: the named site always uses its
    /// default ordering. `#[inline(always)]` + constant propagation
    /// erase the site name entirely.
    #[inline(always)]
    pub(crate) fn ord(_site: &'static str, default: Ordering) -> Ordering {
        default
    }

    /// Passthrough `AtomicUsize` (label is compile-time discarded).
    #[derive(Debug, Default)]
    #[repr(transparent)]
    pub(crate) struct AtomicUsize(std::sync::atomic::AtomicUsize);

    impl AtomicUsize {
        #[inline(always)]
        pub(crate) fn with_label(v: usize, _label: &'static str) -> AtomicUsize {
            AtomicUsize(std::sync::atomic::AtomicUsize::new(v))
        }

        #[inline(always)]
        pub(crate) fn load(&self, ord: Ordering) -> usize {
            self.0.load(ord)
        }

        #[inline(always)]
        pub(crate) fn store(&self, v: usize, ord: Ordering) {
            self.0.store(v, ord)
        }

        #[inline(always)]
        pub(crate) fn fetch_add(&self, v: usize, ord: Ordering) -> usize {
            self.0.fetch_add(v, ord)
        }

        #[inline(always)]
        pub(crate) fn fetch_sub(&self, v: usize, ord: Ordering) -> usize {
            self.0.fetch_sub(v, ord)
        }
    }

    /// Passthrough `AtomicBool`.
    #[derive(Debug, Default)]
    #[repr(transparent)]
    pub(crate) struct AtomicBool(std::sync::atomic::AtomicBool);

    impl AtomicBool {
        #[inline(always)]
        pub(crate) fn with_label(v: bool, _label: &'static str) -> AtomicBool {
            AtomicBool(std::sync::atomic::AtomicBool::new(v))
        }

        #[inline(always)]
        pub(crate) fn load(&self, ord: Ordering) -> bool {
            self.0.load(ord)
        }

        #[inline(always)]
        pub(crate) fn store(&self, v: bool, ord: Ordering) {
            self.0.store(v, ord)
        }
    }

    /// Passthrough `Mutex`.
    #[derive(Debug, Default)]
    #[repr(transparent)]
    pub(crate) struct Mutex<T>(std::sync::Mutex<T>);

    impl<T> Mutex<T> {
        #[inline(always)]
        pub(crate) fn with_label(v: T, _label: &'static str) -> Mutex<T> {
            Mutex(std::sync::Mutex::new(v))
        }

        #[inline(always)]
        pub(crate) fn lock(&self) -> std::sync::LockResult<std::sync::MutexGuard<'_, T>> {
            self.0.lock()
        }
    }

    /// Passthrough `Condvar`.
    #[derive(Debug, Default)]
    #[repr(transparent)]
    pub(crate) struct Condvar(std::sync::Condvar);

    impl Condvar {
        #[inline(always)]
        pub(crate) fn with_label(_label: &'static str) -> Condvar {
            Condvar(std::sync::Condvar::new())
        }

        #[inline(always)]
        pub(crate) fn wait<'a, T>(
            &self,
            guard: std::sync::MutexGuard<'a, T>,
        ) -> std::sync::LockResult<std::sync::MutexGuard<'a, T>> {
            self.0.wait(guard)
        }

        #[inline(always)]
        pub(crate) fn notify_all(&self) {
            self.0.notify_all()
        }
    }
}

#[cfg(feature = "model")]
mod imp {
    use std::sync::atomic::Ordering;

    /// Model-build ordering resolution: the weaken-override map may
    /// substitute a weaker ordering for this named site (the
    /// ordering-minimality matrix drives exactly one site at a time).
    pub(crate) fn ord(site: &'static str, default: Ordering) -> Ordering {
        islands_modelcheck::site::resolve(site, default)
    }

    pub(crate) use islands_modelcheck::{
        ModelAtomicBool as AtomicBool, ModelAtomicUsize as AtomicUsize, ModelCondvar as Condvar,
        ModelMutex as Mutex,
    };
}
