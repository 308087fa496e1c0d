//! The per-stream string tables behind the binary encoding's
//! back-references.
//!
//! Each end of a stream keeps only what it reads. The encoder asks
//! "has this string an id yet?", so [`EncodeTable`] maps content to id
//! and holds the caller's own handle as the key, never a copy. The
//! decoder asks "which string has this id?", so [`DecodeTable`] is a
//! list indexed by id with no content map: a registering literal takes
//! the next id, whatever its content. Both ends register a string only
//! when [`has_room`] says so, over the same counts, so they assign the
//! same ids without the table ever being shipped.

use std::collections::HashMap;

use alertops_model::IStr;

/// Distinct strings a stream's table registers before falling back to
/// unregistered literals. Bounds decoder memory against adversarial
/// streams; matches the interner's count cap.
pub const WIRE_TABLE_CAP: usize = 1 << 16;

/// String bytes a stream's table registers before falling back to
/// unregistered literals. The count cap alone would let one stream pin
/// [`WIRE_TABLE_CAP`] strings of up to [`MAX_FRAME_LEN`](crate::MAX_FRAME_LEN)
/// each; this bounds their sum. Matches the interner's byte cap; honest
/// streams stay far below it (a 20-second `steady-wire` run's client
/// stream registers 7 790 strings of 417 261 bytes, none longer than
/// 72).
pub const WIRE_TABLE_BYTE_CAP: usize = 8 << 20;

// Every registered id is below the count cap, so it fits a `u32`.
const _: () = assert!(WIRE_TABLE_CAP <= u32::MAX as usize);

/// Whether a table holding `len` strings of `bytes` bytes in all
/// registers `s`: the one rule both ends apply.
fn has_room(len: usize, bytes: usize, s: &str) -> bool {
    len < WIRE_TABLE_CAP && s.len() <= WIRE_TABLE_BYTE_CAP - bytes
}

/// How the encoder spells one string.
pub(crate) enum Slot {
    /// Registered earlier under this id: a back-reference.
    Known(u32),
    /// Registered by this call: a registering literal.
    Registered,
    /// Past a cap: an unregistered literal.
    Uncached,
}

/// The encoder's table: content → id, keyed by the caller's handles.
#[derive(Debug, Default)]
pub(crate) struct EncodeTable {
    ids: HashMap<IStr, u32>,
    bytes: usize,
}

impl EncodeTable {
    /// Looks `s` up, registering the caller's handle under the next id
    /// on first sight when the table has room.
    pub(crate) fn slot(&mut self, s: &IStr) -> Slot {
        if let Some(&id) = self.ids.get(s) {
            return Slot::Known(id);
        }
        if !has_room(self.ids.len(), self.bytes, s) {
            return Slot::Uncached;
        }
        let id = self.ids.len() as u32;
        self.bytes += s.len();
        self.ids.insert(s.clone(), id);
        Slot::Registered
    }

    /// Distinct strings registered so far.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// Forgets every string assigned an id of `len` or more, so ids
    /// resume at `len`.
    pub(crate) fn truncate(&mut self, len: usize) {
        let bytes = &mut self.bytes;
        self.ids.retain(|s, id| {
            let keep = (*id as usize) < len;
            if !keep {
                *bytes -= s.len();
            }
            keep
        });
    }

    /// The handle registered for `s`, if any.
    #[cfg(test)]
    pub(crate) fn held(&self, s: &str) -> Option<&IStr> {
        self.ids.get_key_value(s).map(|(held, _)| held)
    }

    /// String bytes registered so far.
    #[cfg(test)]
    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }
}

/// The decoder's table: the strings in id order.
#[derive(Debug, Default)]
pub(crate) struct DecodeTable {
    by_id: Vec<IStr>,
    bytes: usize,
}

impl DecodeTable {
    /// A registering literal: a fresh handle for `s`, which takes the
    /// next id when the table has room (the encoder registered it under
    /// the same rule).
    pub(crate) fn register(&mut self, s: &str) -> IStr {
        let handle = IStr::new(s);
        if has_room(self.by_id.len(), self.bytes, s) {
            self.bytes += s.len();
            self.by_id.push(handle.clone());
        }
        handle
    }

    /// The string assigned `id`, if any.
    pub(crate) fn resolve(&self, id: u32) -> Option<&IStr> {
        self.by_id.get(id as usize)
    }

    /// Distinct strings registered so far.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.by_id.len()
    }

    /// String bytes registered so far.
    #[cfg(test)]
    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoder_ids_are_dense_and_first_use_ordered() {
        let mut table = EncodeTable::default();
        let region = IStr::new("region-x");
        let dc = IStr::new("dc-1");
        assert!(matches!(table.slot(&region), Slot::Registered));
        assert!(matches!(table.slot(&dc), Slot::Registered));
        assert!(matches!(table.slot(&IStr::new("region-x")), Slot::Known(0)));
        assert!(matches!(table.slot(&dc), Slot::Known(1)));
        assert_eq!(table.len(), 2);
        assert_eq!(table.bytes(), "region-x".len() + "dc-1".len());
    }

    #[test]
    fn truncate_takes_back_the_newest_ids() {
        let mut table = EncodeTable::default();
        for s in ["a", "b", "c"] {
            table.slot(&IStr::new(s));
        }
        table.truncate(1);
        assert_eq!(table.len(), 1);
        assert_eq!(table.bytes(), 1);
        assert!(matches!(table.slot(&IStr::new("a")), Slot::Known(0)));
        assert!(matches!(table.slot(&IStr::new("c")), Slot::Registered));
        assert!(
            matches!(table.slot(&IStr::new("c")), Slot::Known(1)),
            "ids resume at the cut"
        );
        table.truncate(9);
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn a_literal_takes_the_next_id_whatever_its_content() {
        let mut table = DecodeTable::default();
        let first = table.register("dc-1");
        let again = table.register("dc-1");
        assert!(!first.ptr_eq(&again), "no content map to find it in");
        assert!(table.resolve(0).unwrap().ptr_eq(&first));
        assert!(table.resolve(1).unwrap().ptr_eq(&again));
        assert_eq!(table.resolve(2), None);
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn both_ends_stop_registering_at_the_same_string() {
        let mut encoder = EncodeTable::default();
        let mut decoder = DecodeTable::default();
        let chunk = "x".repeat(WIRE_TABLE_BYTE_CAP / 3 + 1);
        for i in 0..4 {
            let s = IStr::new(&format!("{i}{chunk}"));
            let registered = matches!(encoder.slot(&s), Slot::Registered);
            assert_eq!(registered, i < 2, "string {i}");
            if registered {
                decoder.register(&s);
            }
            assert_eq!(encoder.len(), decoder.len());
            assert_eq!(encoder.bytes(), decoder.bytes());
            assert!(decoder.bytes() <= WIRE_TABLE_BYTE_CAP);
        }
        // A registering literal past the cap, as a hostile encoder
        // would send it: the decoder's table still holds no more.
        decoder.register(&format!("9{chunk}"));
        assert_eq!(decoder.len(), encoder.len());
        assert!(decoder.bytes() <= WIRE_TABLE_BYTE_CAP);
        // A short string still fits under the byte cap.
        let short = IStr::new("dc-1");
        assert!(matches!(encoder.slot(&short), Slot::Registered));
        decoder.register(&short);
        assert_eq!(encoder.len(), decoder.len());
    }
}
