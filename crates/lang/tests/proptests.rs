//! Property-based tests on the command language: the wire form must
//! round-trip exactly (§2.2: the parser constructs "an exact copy of the
//! ACECmdLine object"), and the parser must never panic on arbitrary input.

use ace_lang::{parse, parse_all, parse_frame, CmdLine, Scalar, Value};
use proptest::prelude::*;

/// `<WORD>` generator: contiguous alphanumerics and underscores.
fn word() -> impl Strategy<Value = String> {
    "[A-Za-z_][A-Za-z0-9_]{0,11}".prop_map(|s| s)
}

/// Quoted-string content: printable, no `"` (the grammar has no escapes).
fn quotable() -> impl Strategy<Value = String> {
    "[ -!#-~]{0,24}".prop_map(|s| s)
}

/// Floats that survive a text round-trip exactly (shortest-repr printing in
/// Rust guarantees read-back equality for finite values).
fn wire_float() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<i32>().prop_map(|i| i as f64 / 16.0),
        any::<f64>().prop_filter("finite", |f| f.is_finite()),
    ]
}

fn scalar(ty: u8) -> BoxedStrategy<Scalar> {
    match ty % 4 {
        0 => any::<i64>().prop_map(Scalar::Int).boxed(),
        1 => wire_float().prop_map(Scalar::Float).boxed(),
        2 => word().prop_map(Scalar::Word).boxed(),
        _ => quotable().prop_map(Scalar::Str).boxed(),
    }
}

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        wire_float().prop_map(Value::Float),
        word().prop_map(Value::Word),
        quotable().prop_map(Value::Str),
        // Homogeneous vector: pick one scalar type, then a list of it.
        (0u8..4)
            .prop_flat_map(|ty| prop::collection::vec(scalar(ty), 0..6).prop_map(Value::Vector)),
        // Homogeneous array: one scalar type across all rows.
        (0u8..4).prop_flat_map(|ty| {
            prop::collection::vec(prop::collection::vec(scalar(ty), 0..4), 1..4)
                .prop_map(Value::Array)
        }),
    ]
}

fn cmdline() -> impl Strategy<Value = CmdLine> {
    (word(), prop::collection::vec((word(), value()), 0..8)).prop_map(|(name, args)| {
        let mut cmd = CmdLine::new(name);
        // Deduplicate argument names: duplicates are representable but
        // rejected by semantics, and equality-after-reparse still holds;
        // keep them distinct so `get` comparisons are unambiguous.
        let mut seen = std::collections::HashSet::new();
        for (n, v) in args {
            if seen.insert(n.clone()) {
                cmd.push_arg(n, v);
            }
        }
        cmd
    })
}

/// Blob contents: short arbitrary bytes, the bytes the frame and the text
/// form give a meaning to (`0x00` ends the text, `;` a command, `"` a
/// string, `@` starts a reference), nothing at all, and 256 KiB.
fn blob() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        prop::collection::vec(any::<u8>(), 0..48),
        prop::collection::vec(
            prop_oneof![Just(0u8), Just(b';'), Just(b'"'), Just(b'@')],
            1..8
        ),
        Just(Vec::new()),
        any::<u8>().prop_map(|b| vec![b; 256 * 1024]),
    ]
}

/// A command with 0..4 blob arguments scattered among its other arguments.
fn blob_cmdline() -> impl Strategy<Value = CmdLine> {
    (cmdline(), prop::collection::vec((blob(), 0usize..9), 0..5)).prop_map(|(base, blobs)| {
        let mut args: Vec<(String, Value)> = base.args().to_vec();
        for (i, (bytes, at)) in blobs.into_iter().enumerate() {
            // `cmdline()` names never start with a digit, so these are fresh.
            args.insert(at.min(args.len()), (format!("0blob{i}"), bytes.into()));
        }
        args.into_iter()
            .fold(CmdLine::new(base.name()), |c, (n, v)| c.arg(n, v))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Frame→parse is the identity, blobs included; and the text form of
    /// the same command reads as the same bytes through `get_blob`.
    #[test]
    fn frame_and_text_roundtrip_with_blobs(cmd in blob_cmdline()) {
        let back = parse_frame(&cmd.to_frame()).expect("generated frame must parse");
        prop_assert_eq!(&back, &cmd);
        let text = parse(&cmd.to_wire()).expect("generated text form must parse");
        prop_assert_eq!(text.arg_count(), cmd.arg_count());
        for ((name, value), (text_name, text_value)) in cmd.args().iter().zip(text.args()) {
            prop_assert_eq!(name, text_name);
            match value {
                Value::Blob(bytes) => {
                    let read = text.get_blob(name);
                    prop_assert_eq!(read.as_deref(), Some(bytes.as_slice()));
                }
                other => prop_assert_eq!(other, text_value),
            }
        }
    }

    /// A frame cut short or run long anywhere in its attachment section is
    /// refused, never mis-split.
    #[test]
    fn resized_frames_are_refused(cmd in blob_cmdline(), cut in 1usize..64, grow in any::<bool>()) {
        let mut frame = cmd.to_frame();
        let Some(section) = frame.iter().position(|&b| b == 0) else {
            return Ok(()); // no blob, no section
        };
        if grow {
            frame.push(cut as u8);
        } else {
            let attached = frame.len() - section - 1;
            prop_assume!(attached > 0);
            frame.truncate(frame.len() - cut.min(attached));
        }
        prop_assert!(parse_frame(&frame).is_err());
    }

    /// The frame parser is total on arbitrary bytes.
    #[test]
    fn frame_parser_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        let _ = parse_frame(&bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Encode→parse is the identity on command lines.
    #[test]
    fn wire_roundtrip(cmd in cmdline()) {
        let wire = cmd.to_wire();
        let back = parse(&wire).expect("generated wire form must parse");
        prop_assert_eq!(back, cmd);
    }

    /// Batched framing round-trips too.
    #[test]
    fn batch_roundtrip(cmds in prop::collection::vec(cmdline(), 1..5)) {
        let wire: String = cmds.iter().map(|c| c.to_wire()).collect::<Vec<_>>().join(" ");
        let back = parse_all(&wire).expect("batch must parse");
        prop_assert_eq!(back, cmds);
    }

    /// The parser is total: arbitrary input never panics, it returns
    /// Ok or Err.
    #[test]
    fn parser_never_panics(src in "\\PC{0,64}") {
        let _ = parse(&src);
        let _ = parse_all(&src);
    }

    /// Arbitrary ASCII soup never panics either (denser in metacharacters
    /// than general unicode).
    #[test]
    fn parser_never_panics_ascii(src in "[ -~]{0,64}") {
        let _ = parse(&src);
    }

    /// Parsing is deterministic.
    #[test]
    fn parse_deterministic(src in "[ -~]{0,64}") {
        prop_assert_eq!(parse(&src), parse(&src));
    }

    /// Double round-trip is stable: parse(encode(parse(encode(c)))) == parse(encode(c)).
    #[test]
    fn encode_is_canonical(cmd in cmdline()) {
        let once = parse(&cmd.to_wire()).unwrap();
        let twice = parse(&once.to_wire()).unwrap();
        prop_assert_eq!(once, twice);
    }
}
