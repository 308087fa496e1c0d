//! String interning: one allocation per *distinct* string, refcounted
//! sharing everywhere else.
//!
//! An alert stream is massively repetitive — a catalog of a few
//! thousand strategies produces millions of alerts whose titles,
//! service names, and location strings are drawn from that small fixed
//! set. Representing each occurrence as its own `String` makes every
//! clone of an [`Alert`](crate::Alert) (shard hand-over, checkpoint,
//! WAL replay, `WindowDelta` merge) a fresh round of heap traffic.
//! [`IStr`] replaces those fields with an `Arc<Box<str>>`: cloning is
//! a refcount bump, equality starts with a pointer compare, and
//! [`intern`] deduplicates so the steady state allocates nothing.
//!
//! The handle is one word, not the two of an `Arc<str>`: an
//! [`Alert`](crate::Alert) holds five of them, and every strategy row,
//! SOP line and emerging document holds one per field, so the handle's
//! width is paid per alert while the extra indirection is paid once
//! per *distinct* string. A distinct string costs two allocations: the
//! `Arc`'s 32-byte control block (two counts and the box's fat
//! pointer) and the string's own bytes.
//!
//! One interning scope lives here: the **thread-local set** behind
//! [`intern`], a set of handles and nothing else. It is bounded at
//! [`DEFAULT_TABLE_CAP`] distinct strings and [`DEFAULT_TABLE_BYTE_CAP`]
//! bytes of them, so adversarial ingress cannot grow it without bound
//! — over-cap strings still intern, they just are not cached.
//! `From<&str>` / serde deserialization go through it, which is what
//! makes JSON decode of a repeated title allocate once per *distinct*
//! title per thread, not once per alert. NDJSON ingress pays one
//! lookup here per non-empty string field: `intern("")` returns
//! [`IStr::empty`] without one.
//!
//! The binary wire codec keeps its own per-stream tables, with dense
//! ids, in `alertops-wire`, the one crate that reads ids: its encoder
//! maps the caller's handles to ids and its decoder keeps an
//! id-indexed list of handles it made with [`IStr::new`].
//!
//! Building an [`Alert`](crate::Alert) interns nothing: the builder
//! takes the handles it is given, and fills a field it was not given
//! from [`IStr::empty`], the thread's `intern("")` handle cached on
//! first use.
//!
//! `IStr` is serde-transparent: it serializes as a plain JSON string,
//! so external JSON (NDJSON ingress, status snapshots, checkpoints) is
//! byte-identical to the pre-interning representation.

use std::borrow::Borrow;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

use serde::{DeError, Deserialize, Serialize, Value};

/// Distinct strings the thread-local set caches before it stops
/// growing. Interning stays correct beyond the cap — lookups that miss
/// simply allocate like a plain `String` would.
pub const DEFAULT_TABLE_CAP: usize = 1 << 16;

/// String bytes the thread-local set caches before it stops growing.
/// The count cap alone would let one thread pin [`DEFAULT_TABLE_CAP`]
/// strings of up to a frame's length each; this bounds the sum. Honest
/// catalogs stay far below it: the alerts of the 60-day `study`
/// scenario carry 1 731 distinct strings of 94 005 bytes in all, none
/// longer than 74, where this cap allows 128 bytes per entry at the
/// count cap.
pub const DEFAULT_TABLE_BYTE_CAP: usize = 8 << 20;

thread_local! {
    static DEFAULT_SET: RefCell<Interner> =
        RefCell::new(Interner::with_limits(DEFAULT_TABLE_CAP, DEFAULT_TABLE_BYTE_CAP));
    static EMPTY: IStr = DEFAULT_SET.with(|set| set.borrow_mut().intern(""));
}

/// Interns `s` through the thread-local set. The empty string skips
/// the lookup and returns [`IStr::empty`], the handle the set holds
/// for it.
#[must_use]
pub fn intern(s: &str) -> IStr {
    if s.is_empty() {
        return IStr::empty();
    }
    DEFAULT_SET.with(|set| set.borrow_mut().intern(s))
}

/// An immutable, interned, cheaply clonable string.
///
/// Dereferences to `&str`; equality, ordering, and hashing are all
/// content-based (equality takes a pointer-identity fast path first,
/// which interned strings hit almost always). One word wide, and so is
/// `Option<IStr>`.
#[derive(Clone)]
pub struct IStr(Arc<Box<str>>);

impl IStr {
    /// A fresh, unshared handle holding a copy of `s`. For a holder
    /// that deduplicates on its own terms, as the wire decoder's
    /// per-stream table does; everything else goes through [`intern`].
    #[must_use]
    pub fn new(s: &str) -> Self {
        Self(Arc::new(Box::from(s)))
    }

    /// The empty interned string: the thread's own `intern("")`
    /// handle, looked up once per thread and cloned from then on.
    #[must_use]
    pub fn empty() -> Self {
        EMPTY.with(Self::clone)
    }

    /// The string contents.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Whether `self` and `other` share one allocation. Two equal
    /// strings from different scopes (two threads' sets, or a fresh
    /// [`IStr::new`]) may compare unequal here — this is an
    /// optimization probe, not equality.
    #[must_use]
    pub fn ptr_eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Default for IStr {
    fn default() -> Self {
        Self::empty()
    }
}

impl Deref for IStr {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for IStr {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for IStr {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl PartialEq for IStr {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.as_str() == other.as_str()
    }
}

impl Eq for IStr {}

impl PartialEq<str> for IStr {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for IStr {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl Hash for IStr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl PartialOrd for IStr {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IStr {
    fn cmp(&self, other: &Self) -> Ordering {
        if Arc::ptr_eq(&self.0, &other.0) {
            Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl fmt::Debug for IStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for IStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for IStr {
    fn from(value: &str) -> Self {
        intern(value)
    }
}

impl From<&String> for IStr {
    fn from(value: &String) -> Self {
        intern(value)
    }
}

impl From<String> for IStr {
    fn from(value: String) -> Self {
        intern(&value)
    }
}

impl From<&IStr> for IStr {
    fn from(value: &IStr) -> Self {
        value.clone()
    }
}

impl From<IStr> for String {
    fn from(value: IStr) -> Self {
        value.as_str().to_owned()
    }
}

impl Serialize for IStr {
    fn to_value(&self) -> Value {
        Value::String(self.as_str().to_owned())
    }
}

impl Deserialize for IStr {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::String(s) => Ok(intern(s)),
            other => Err(DeError::custom(format!("expected string, got {other:?}"))),
        }
    }
}

/// A capped set of handles: the thread-local scope behind [`intern`].
/// It holds each cached string once and assigns no ids.
#[derive(Debug)]
struct Interner {
    handles: HashSet<IStr>,
    cap: usize,
    byte_cap: usize,
    bytes: usize,
}

impl Interner {
    /// A set that stops caching once a string would take it past
    /// `cap` distinct strings or `byte_cap` bytes of string content.
    fn with_limits(cap: usize, byte_cap: usize) -> Self {
        Self {
            handles: HashSet::new(),
            cap,
            byte_cap,
            bytes: 0,
        }
    }

    /// Returns the shared copy of `s`, allocating only on first sight
    /// or when the set is at a cap (then the fresh handle is not
    /// remembered).
    fn intern(&mut self, s: &str) -> IStr {
        if let Some(held) = self.handles.get(s) {
            return held.clone();
        }
        let fresh = IStr::new(s);
        if self.handles.len() < self.cap && s.len() <= self.byte_cap - self.bytes {
            self.bytes += s.len();
            self.handles.insert(fresh.clone());
        }
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedups_to_one_allocation() {
        let a = intern("haproxy process number warning");
        let b = intern("haproxy process number warning");
        assert!(a.ptr_eq(&b), "same thread, same set, same Arc");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "haproxy process number warning");
    }

    #[test]
    fn content_semantics_hold_across_handles() {
        let a = intern("dc-1");
        let b = IStr::new("dc-1");
        assert!(!a.ptr_eq(&b), "a fresh handle shares nothing");
        assert_eq!(a, b, "but equal by content");
        assert_eq!(a.cmp(&b), Ordering::Equal);
        use std::collections::hash_map::DefaultHasher;
        let hash = |s: &IStr| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a = intern("alpha");
        let b = intern("beta");
        assert!(a < b);
        assert_eq!(a.clone().max(b.clone()), b);
    }

    #[test]
    fn a_capped_set_stops_caching_but_keeps_interning() {
        let mut set = Interner::with_limits(1, usize::MAX);
        let a = set.intern("only");
        let b = set.intern("overflow");
        let c = set.intern("overflow");
        assert_eq!(b, c);
        assert!(!b.ptr_eq(&c), "over-cap strings are not cached");
        assert!(a.ptr_eq(&set.intern("only")));
        assert_eq!(set.handles.len(), 1);
    }

    #[test]
    fn a_byte_capped_set_holds_no_more_than_its_cap() {
        let mut set = Interner::with_limits(usize::MAX, 100);
        for i in 0..64 {
            let s = format!("{i:02}-{}", "x".repeat(i));
            let interned = set.intern(&s);
            assert_eq!(interned.as_str(), s);
            assert!(set.bytes <= 100, "{} bytes held", set.bytes);
        }
        // Fed far more than 100 bytes, it still caches what fits.
        assert!(set.handles.len() > 1);
        let held: usize = set.handles.iter().map(|s| s.len()).sum();
        assert_eq!(held, set.bytes);
        // Over the cap a string still interns, it is just not cached.
        let long = "y".repeat(101);
        let a = set.intern(&long);
        let b = set.intern(&long);
        assert_eq!(a, b);
        assert_eq!(a.as_str(), long);
        assert!(!a.ptr_eq(&b));
    }

    #[test]
    fn the_empty_handle_is_the_threads_intern_of_empty() {
        let empty = IStr::empty();
        assert!(empty.ptr_eq(&IStr::default()));
        assert!(empty.ptr_eq(&intern("")));
        assert!(empty.ptr_eq(&IStr::empty()));
        assert_eq!(empty.as_str(), "");
        // The same holds when `intern("")` runs first on a thread.
        std::thread::spawn(|| {
            let interned = intern("");
            assert!(interned.ptr_eq(&IStr::empty()));
            assert!(interned.ptr_eq(&IStr::default()));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn interning_empty_leaves_the_set_alone() {
        let empty = IStr::empty();
        // Any lookup would panic on the held borrow.
        let interned = DEFAULT_SET.with(|set| {
            let _held = set.borrow_mut();
            intern("")
        });
        assert!(interned.ptr_eq(&empty));
    }

    #[test]
    fn serde_is_transparent() {
        let s = intern("Block Storage");
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(json, "\"Block Storage\"");
        let back: IStr = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        assert!(back.ptr_eq(&s), "deserialization reuses the cached Arc");
    }

    #[test]
    fn conversions_cover_builder_call_sites() {
        let from_str: IStr = "x".into();
        let from_string: IStr = String::from("x").into();
        let from_ref: IStr = (&from_str).into();
        assert_eq!(from_str, from_string);
        assert_eq!(from_str, from_ref);
        assert_eq!(String::from(from_str), "x");
        assert_eq!(IStr::default(), IStr::empty());
        assert_eq!(IStr::default().as_str(), "");
    }
}
