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
//! a refcount bump, equality starts with a pointer compare, and a
//! [`StrTable`] deduplicates so the steady state allocates nothing.
//!
//! The handle is one word, not the two of an `Arc<str>`: an
//! [`Alert`](crate::Alert) holds five of them, and every strategy row,
//! SOP line and emerging document holds one per field, so the handle's
//! width is paid per alert while the extra indirection is paid once
//! per *distinct* string. A distinct string costs two allocations: the
//! `Arc`'s 32-byte control block (two counts and the box's fat
//! pointer) and the string's own bytes.
//!
//! Two interning scopes exist:
//!
//! * The **thread-local default table** behind [`intern`] (bounded at
//!   [`DEFAULT_TABLE_CAP`] distinct strings and
//!   [`DEFAULT_TABLE_BYTE_CAP`] bytes of them, so adversarial ingress
//!   cannot grow it without bound — over-cap strings still intern,
//!   they just are not cached). `From<&str>` / serde deserialization
//!   go through it, which is what makes JSON decode of a repeated
//!   title allocate once per *distinct* title per thread, not once
//!   per alert. NDJSON ingress pays one lookup here per non-empty
//!   string field: `intern("")` returns [`IStr::empty`] without one.
//! * **Explicit [`StrTable`]s** with dense `u32` ids, owned by the
//!   binary wire codec: first occurrence travels as a literal and
//!   assigns the next id, later occurrences travel as a back-reference
//!   to that id, so binary ingress looks up first-sight literals only.
//!   See `alertops-wire`.
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
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

use serde::{DeError, Deserialize, Serialize, Value};

/// Distinct strings the thread-local default table caches before it
/// stops growing. Interning stays correct beyond the cap — lookups
/// that miss simply allocate like a plain `String` would.
pub const DEFAULT_TABLE_CAP: usize = 1 << 16;

/// String bytes the thread-local default table caches before it stops
/// growing. The count cap alone would let one thread pin
/// [`DEFAULT_TABLE_CAP`] strings of up to a frame's length each; this
/// bounds the sum. Honest catalogs stay far below it: the alerts of
/// the 60-day `study` scenario carry 1 731 distinct strings of 94 005
/// bytes in all, none longer than 74, where this cap allows 128 bytes
/// per entry at the count cap.
pub const DEFAULT_TABLE_BYTE_CAP: usize = 8 << 20;

thread_local! {
    static DEFAULT_TABLE: RefCell<StrTable> =
        RefCell::new(StrTable::with_limits(DEFAULT_TABLE_CAP, DEFAULT_TABLE_BYTE_CAP));
    static EMPTY: IStr = DEFAULT_TABLE.with(|table| table.borrow_mut().intern(""));
}

/// Interns `s` through the thread-local default table. The empty
/// string skips the lookup and returns [`IStr::empty`], the handle
/// the table holds for it.
#[must_use]
pub fn intern(s: &str) -> IStr {
    if s.is_empty() {
        return IStr::empty();
    }
    DEFAULT_TABLE.with(|table| table.borrow_mut().intern(s))
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
    /// A fresh, unshared handle holding a copy of `s`.
    fn new(s: &str) -> Self {
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
    /// strings interned through different tables may compare unequal
    /// here — this is an optimization probe, not equality.
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

/// A deduplicating table of [`IStr`]s with dense `u32` ids in
/// first-insertion order.
///
/// The ids are what the binary wire codec's string back-references
/// index into: encoder and decoder each run one table per stream (or
/// per WAL segment) and assign ids in the same order by construction,
/// so an id on the wire is meaningful without ever shipping the table.
#[derive(Debug, Clone, Default)]
pub struct StrTable {
    by_id: Vec<IStr>,
    ids: HashMap<IStr, u32>,
    cap: usize,
    byte_cap: usize,
    bytes: usize,
}

impl StrTable {
    /// An unbounded table (grows with every distinct string).
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(usize::MAX)
    }

    /// A table that stops caching after `cap` distinct strings.
    /// Interning past the cap still works — misses allocate without
    /// being remembered, and [`insert`](Self::insert) reports the
    /// string as unassigned.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Self::with_limits(cap, usize::MAX)
    }

    /// A table that stops caching once a string would take it past
    /// `cap` distinct strings or `byte_cap` bytes of string content,
    /// with the same over-cap behaviour as
    /// [`with_capacity`](Self::with_capacity).
    fn with_limits(cap: usize, byte_cap: usize) -> Self {
        Self {
            by_id: Vec::new(),
            ids: HashMap::new(),
            cap,
            byte_cap,
            bytes: 0,
        }
    }

    /// Distinct strings currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// Whether the table holds nothing yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// Drops every entry (ids restart from 0).
    pub fn clear(&mut self) {
        self.by_id.clear();
        self.ids.clear();
        self.bytes = 0;
    }

    /// Returns the shared copy of `s`, allocating only on first sight
    /// (or when the table is at capacity).
    pub fn intern(&mut self, s: &str) -> IStr {
        if let Some(id) = self.ids.get(s) {
            return self.by_id[*id as usize].clone();
        }
        let interned = IStr::new(s);
        self.remember(interned.clone());
        interned
    }

    /// Interns `s` and reports its id assignment: `(id, true)` when
    /// this call inserted it (the wire codec emits a literal), the
    /// existing `(id, false)` when it was already present (the codec
    /// emits a back-reference), or `None` when the table is full and
    /// `s` is unknown (the codec emits an unregistered literal).
    pub fn insert(&mut self, s: &str) -> Option<(u32, bool)> {
        if let Some(id) = self.ids.get(s) {
            return Some((*id, false));
        }
        if !self.has_room(s) {
            return None;
        }
        let id = u32::try_from(self.by_id.len()).ok()?;
        let interned = IStr::new(s);
        self.push(interned, id);
        Some((id, true))
    }

    /// The string assigned `id`, if any.
    #[must_use]
    pub fn resolve(&self, id: u32) -> Option<&IStr> {
        self.by_id.get(id as usize)
    }

    /// Forgets every string assigned an id of `len` or more, so ids
    /// resume at `len`: how an encoder takes back the strings of a
    /// frame its reader never got.
    pub fn truncate(&mut self, len: usize) {
        for s in self.by_id.drain(len.min(self.by_id.len())..) {
            self.bytes -= s.len();
            self.ids.remove(&s);
        }
    }

    fn remember(&mut self, interned: IStr) {
        if !self.has_room(&interned) {
            return;
        }
        if let Ok(id) = u32::try_from(self.by_id.len()) {
            self.push(interned, id);
        }
    }

    fn has_room(&self, s: &str) -> bool {
        self.by_id.len() < self.cap && s.len() <= self.byte_cap - self.bytes
    }

    fn push(&mut self, interned: IStr, id: u32) {
        self.bytes += interned.len();
        self.by_id.push(interned.clone());
        self.ids.insert(interned, id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedups_to_one_allocation() {
        let a = intern("haproxy process number warning");
        let b = intern("haproxy process number warning");
        assert!(a.ptr_eq(&b), "same thread, same table, same Arc");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "haproxy process number warning");
    }

    #[test]
    fn content_semantics_hold_across_tables() {
        let mut t1 = StrTable::new();
        let mut t2 = StrTable::new();
        let a = t1.intern("dc-1");
        let b = t2.intern("dc-1");
        assert!(!a.ptr_eq(&b), "different tables, different Arcs");
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
    fn table_ids_are_dense_and_first_use_ordered() {
        let mut table = StrTable::new();
        assert_eq!(table.insert("region-x"), Some((0, true)));
        assert_eq!(table.insert("dc-1"), Some((1, true)));
        assert_eq!(table.insert("region-x"), Some((0, false)));
        assert_eq!(table.resolve(0).unwrap().as_str(), "region-x");
        assert_eq!(table.resolve(1).unwrap().as_str(), "dc-1");
        assert_eq!(table.resolve(2), None);
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn capped_table_stops_caching_but_keeps_interning() {
        let mut table = StrTable::with_capacity(1);
        let a = table.intern("only");
        assert_eq!(table.insert("overflow"), None);
        let b = table.intern("overflow");
        let c = table.intern("overflow");
        assert_eq!(b, c);
        assert!(!b.ptr_eq(&c), "over-cap strings are not cached");
        assert!(a.ptr_eq(&table.intern("only")));
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn byte_capped_table_holds_no_more_than_its_cap() {
        let mut table = StrTable::with_limits(usize::MAX, 100);
        for i in 0..64 {
            let s = format!("{i:02}-{}", "x".repeat(i));
            let interned = table.intern(&s);
            assert_eq!(interned.as_str(), s);
            assert!(table.bytes <= 100, "{} bytes held", table.bytes);
        }
        // Fed far more than 100 bytes, it still caches what fits.
        assert!(table.len() > 1);
        let held: usize = (0..table.len())
            .map(|id| table.resolve(u32::try_from(id).unwrap()).unwrap().len())
            .sum();
        assert_eq!(held, table.bytes);
        // Over the cap a string still interns, it is just not cached.
        let long = "y".repeat(101);
        let a = table.intern(&long);
        let b = table.intern(&long);
        assert_eq!(a, b);
        assert_eq!(a.as_str(), long);
        assert!(!a.ptr_eq(&b));
        assert_eq!(table.insert(&long), None);
        table.clear();
        assert_eq!(table.bytes, 0);
    }

    #[test]
    fn truncate_takes_back_the_newest_ids() {
        let mut t = StrTable::new();
        t.insert("a");
        t.insert("b");
        t.insert("c");
        t.truncate(1);
        assert_eq!(t.len(), 1);
        assert_eq!(t.insert("a"), Some((0, false)));
        assert_eq!(t.insert("c"), Some((1, true)), "ids resume at the cut");
        t.truncate(9);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn clear_resets_ids() {
        let mut table = StrTable::new();
        table.insert("a");
        table.clear();
        assert!(table.is_empty());
        assert_eq!(table.insert("b"), Some((0, true)));
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
    fn interning_empty_leaves_the_table_alone() {
        let empty = IStr::empty();
        // Any lookup would panic on the held borrow.
        let interned = DEFAULT_TABLE.with(|table| {
            let _held = table.borrow_mut();
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
