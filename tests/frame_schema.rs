//! The on-PM frame schema. Every format declared with `specpmt_pmem::frame!`
//! is checked against its own field table (back to back from offset 0,
//! `LEN` the sum of the widths), against the sizes and offsets the code used
//! before the declarations, by round trips over seeded bytes, and against
//! the one layout line DESIGN.md gives for it. The bytes each encoder
//! writes are pinned by the known-answer unit test beside its declaration.

use specpmt::core::hashlog::{GenerationHeader, CHUNK};
use specpmt::core::layout::DescriptorHeader;
use specpmt::core::record::{
    Anchor, BlockHeader, CheckpointHeader, EntryHeader, RecordHeader, BLOCK_HDR, ENTRY_HDR, REC_HDR,
};
use specpmt::core::undo::{entry_bytes, UndoHeader};
use specpmt::pmem::blackbox::{EventSlot, RegionHeader};
use specpmt::pmem::frame::Field;
use specpmt::pmem::{root_off, PoolHeader, SplitMix64, BUMP_OFF};

/// One declared format, as a table row.
struct Format {
    name: &'static str,
    len: usize,
    fields: &'static [Field],
    /// Decodes the frame `bytes` starts with and encodes it again, checking
    /// that decoding the encoded bytes gives the same frame.
    round_trip: fn(&[u8]) -> Option<Vec<u8>>,
}

macro_rules! formats {
    ($($frame:ident),+ $(,)?) => {
        [$(Format {
            name: stringify!($frame),
            len: $frame::LEN,
            fields: $frame::FIELDS,
            round_trip: |bytes| {
                let frame = $frame::decode(bytes)?;
                let encoded = frame.encode();
                assert_eq!($frame::decode(&encoded), Some(frame), "decode(encode(x)) != x");
                Some(encoded.to_vec())
            },
        }),+]
    };
}

/// Every on-PM format the workspace declares.
fn formats() -> [Format; 11] {
    formats![
        RecordHeader,
        EntryHeader,
        BlockHeader,
        CheckpointHeader,
        Anchor,
        DescriptorHeader,
        PoolHeader,
        UndoHeader,
        GenerationHeader,
        EventSlot,
        RegionHeader,
    ]
}

#[test]
fn each_format_is_its_fields_back_to_back() {
    for f in formats() {
        let mut at = 0;
        for (i, field) in f.fields.iter().enumerate() {
            assert_eq!(field.offset, at, "{}.{} overlaps or leaves a gap", f.name, field.name);
            assert!(field.width > 0, "{}.{}", f.name, field.name);
            assert!(
                f.fields[..i].iter().all(|other| other.name != field.name),
                "{}.{} is declared twice",
                f.name,
                field.name
            );
            at += field.width;
        }
        assert_eq!(at, f.len, "{}: LEN is the sum of its widths", f.name);
    }
}

/// Where field `name` of a frame with table `fields` starts.
fn offset(fields: &[Field], name: &str) -> usize {
    fields.iter().find(|f| f.name == name).expect("a declared field").offset
}

/// The sizes and offsets that were hand-maintained constants before the
/// formats were declared keep their values.
#[test]
fn sizes_and_offsets_keep_their_values() {
    let sizes = [
        REC_HDR,
        ENTRY_HDR,
        offset(EntryHeader::FIELDS, "len"),
        BLOCK_HDR,
        CheckpointHeader::LEN,
        Anchor::LEN,
        DescriptorHeader::LEN,
        EventSlot::LEN,
        UndoHeader::LEN,
    ];
    assert_eq!(sizes, [20, 8, 6, 16, 28, 32, 48, 40, 24]);
    assert_eq!(entry_bytes(0), 24);
    let descriptor =
        ["seal", "ckpt_head", "bbox_head"].map(|f| offset(DescriptorHeader::FIELDS, f));
    assert_eq!(descriptor, [24, 32, 40]);
    let seals = [offset(EventSlot::FIELDS, "seal"), offset(RegionHeader::FIELDS, "seal")];
    assert_eq!(seals, [32, 16]);
    // A hash-log slot: its key, then two generations of header and value.
    assert_eq!(GenerationHeader::LEN + CHUNK, 48);
    assert_eq!([BUMP_OFF, root_off(0), root_off(15), PoolHeader::LEN], [8, 16, 136, 144]);
}

#[test]
fn decode_and_encode_round_trip_over_seeded_bytes() {
    let mut rng = SplitMix64::new(0xf4a3_e5c4);
    for f in formats() {
        for _ in 0..64 {
            let bytes: Vec<u8> = (0..f.len + 3).map(|_| rng.next_u8()).collect();
            let encoded = (f.round_trip)(&bytes).expect("a whole frame decodes");
            assert_eq!(encoded, bytes[..f.len], "{}: encode(decode(b)) != b", f.name);
            assert!((f.round_trip)(&bytes[..f.len - 1]).is_none(), "{}: a short frame", f.name);
        }
    }
}

/// DESIGN.md gives each format one line, `` `Name` (LEN) = `field (width) |
/// …` ``, and it is the declaration's field table.
#[test]
fn design_md_layouts_are_the_declarations() {
    let design = include_str!("../DESIGN.md");
    for f in formats() {
        let tag = format!("`{}` (", f.name);
        let lines: Vec<(&str, &str)> = design
            .match_indices(&tag)
            .filter_map(|(at, _)| design[at + tag.len()..].split_once(") = `"))
            .filter(|(len, _)| len.bytes().all(|b| b.is_ascii_digit()))
            .map(|(len, rest)| (len, rest.split('`').next().unwrap_or("")))
            .collect();
        let [(len, layout)] = lines[..] else {
            panic!("DESIGN.md has {} layout lines for {}, not one", lines.len(), f.name);
        };
        let want: Vec<String> =
            f.fields.iter().map(|field| format!("{} ({})", field.name, field.width)).collect();
        assert_eq!(len.parse(), Ok(f.len), "DESIGN.md's size of {}", f.name);
        assert_eq!(layout, want.join(" | "), "DESIGN.md's layout of {}", f.name);
    }
}
