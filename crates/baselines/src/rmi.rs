//! An RMI-style invocation codec — the comparison target of the paper's
//! efficiency claim.
//!
//! "Providing ACE with a unique and simple command language allows for a
//! very lightweight form of communication … much more lightweight than
//! utilizing something like RMI" (§2.2), and of Ninja: "ACE communications
//! \[are\] much more lightweight than Ninja's bytecode transmissions" (§8.1).
//!
//! This codec reproduces *why* RMI messages are heavy: Java object
//! serialization ships self-describing streams.  Every invocation carries a
//! stream header, the remote interface and method names, and for each
//! argument a full class descriptor — class name, serialVersionUID, field
//! count, per-field type tags and names — before any data.  (Real RMI can
//! cache descriptors per connection; like RMI's default for call arguments
//! written as fresh object graphs, descriptors are re-sent per call here,
//! which is what the paper's comparison is about.)

use ace_lang::{CmdLine, Scalar, Value};

/// Argument values of an RMI-style call.
#[derive(Debug, Clone, PartialEq)]
pub enum RmiValue {
    Long(i64),
    Double(f64),
    Str(String),
    /// An `ArrayList<Object>` of boxed values.
    List(Vec<RmiValue>),
}

/// One remote method invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct RmiCall {
    /// Fully-qualified remote interface, e.g. `edu.ku.ittc.ace.PTZCamera`.
    pub interface: String,
    pub method: String,
    /// `(parameter name, value)` pairs (names preserved for apples-to-apples
    /// conversion from ACE commands).
    pub args: Vec<(String, RmiValue)>,
}

const STREAM_MAGIC: u16 = 0xaced;
const STREAM_VERSION: u16 = 5;

fn write_utf(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u16).to_be_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn read_utf(data: &[u8], pos: &mut usize) -> Option<String> {
    let len = u16::from_be_bytes([*data.get(*pos)?, *data.get(*pos + 1)?]) as usize;
    *pos += 2;
    let bytes = data.get(*pos..*pos + len)?;
    *pos += len;
    String::from_utf8(bytes.to_vec()).ok()
}

/// Write a full class descriptor for a boxed value — the per-object
/// overhead of Java serialization.
fn write_descriptor(out: &mut Vec<u8>, value: &RmiValue) {
    let (class, uid, fields): (&str, u64, &[(&str, u8)]) = match value {
        RmiValue::Long(_) => ("java.lang.Long", 0x3b8b_e490_cc8f_23df, &[("value", b'J')]),
        RmiValue::Double(_) => (
            "java.lang.Double",
            0x80b3_c24a_296b_fb04,
            &[("value", b'D')],
        ),
        RmiValue::Str(_) => (
            "java.lang.String",
            0xa0f0_a438_7a3b_b342,
            &[("value", b'[')],
        ),
        RmiValue::List(_) => (
            "java.util.ArrayList",
            0x7881_d21d_99c7_619d,
            &[("size", b'I'), ("elementData", b'[')],
        ),
    };
    out.push(0x72); // TC_CLASSDESC
    write_utf(out, class);
    out.extend_from_slice(&uid.to_be_bytes());
    out.push(0x02); // SC_SERIALIZABLE flags
    out.extend_from_slice(&(fields.len() as u16).to_be_bytes());
    for (name, ty) in fields {
        out.push(*ty);
        write_utf(out, name);
        if *ty == b'[' {
            // Object-typed fields carry a type signature string too.
            write_utf(out, "Ljava/lang/Object;");
        }
    }
    out.push(0x78); // TC_ENDBLOCKDATA
    out.push(0x70); // TC_NULL (no superclass)
}

fn write_value(out: &mut Vec<u8>, value: &RmiValue) {
    out.push(0x73); // TC_OBJECT
    write_descriptor(out, value);
    match value {
        RmiValue::Long(v) => out.extend_from_slice(&v.to_be_bytes()),
        RmiValue::Double(v) => out.extend_from_slice(&v.to_be_bytes()),
        RmiValue::Str(s) => {
            out.push(0x74); // TC_STRING
            write_utf(out, s);
        }
        RmiValue::List(items) => {
            out.extend_from_slice(&(items.len() as u32).to_be_bytes());
            for item in items {
                write_value(out, item);
            }
        }
    }
}

fn read_value(data: &[u8], pos: &mut usize) -> Option<RmiValue> {
    if *data.get(*pos)? != 0x73 {
        return None;
    }
    *pos += 1;
    // Descriptor.
    if *data.get(*pos)? != 0x72 {
        return None;
    }
    *pos += 1;
    let class = read_utf(data, pos)?;
    *pos += 8 + 1; // uid + flags
    let field_count = u16::from_be_bytes([*data.get(*pos)?, *data.get(*pos + 1)?]);
    *pos += 2;
    for _ in 0..field_count {
        let ty = *data.get(*pos)?;
        *pos += 1;
        let _name = read_utf(data, pos)?;
        if ty == b'[' {
            let _sig = read_utf(data, pos)?;
        }
    }
    *pos += 2; // TC_ENDBLOCKDATA + TC_NULL
    match class.as_str() {
        "java.lang.Long" => {
            let bytes: [u8; 8] = data.get(*pos..*pos + 8)?.try_into().ok()?;
            *pos += 8;
            Some(RmiValue::Long(i64::from_be_bytes(bytes)))
        }
        "java.lang.Double" => {
            let bytes: [u8; 8] = data.get(*pos..*pos + 8)?.try_into().ok()?;
            *pos += 8;
            Some(RmiValue::Double(f64::from_be_bytes(bytes)))
        }
        "java.lang.String" => {
            if *data.get(*pos)? != 0x74 {
                return None;
            }
            *pos += 1;
            Some(RmiValue::Str(read_utf(data, pos)?))
        }
        "java.util.ArrayList" => {
            let len = u32::from_be_bytes(data.get(*pos..*pos + 4)?.try_into().ok()?) as usize;
            *pos += 4;
            let mut items = Vec::with_capacity(len);
            for _ in 0..len {
                items.push(read_value(data, pos)?);
            }
            Some(RmiValue::List(items))
        }
        _ => None,
    }
}

impl RmiCall {
    /// Serialize the invocation.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        out.extend_from_slice(&STREAM_MAGIC.to_be_bytes());
        out.extend_from_slice(&STREAM_VERSION.to_be_bytes());
        out.push(0x50); // call marker
        write_utf(&mut out, &self.interface);
        write_utf(&mut out, &self.method);
        // Method hash (RMI sends an 8-byte method hash).
        out.extend_from_slice(
            &ace_security::hash::fnv64(format!("{}#{}", self.interface, self.method).as_bytes())
                .to_be_bytes(),
        );
        out.extend_from_slice(&(self.args.len() as u16).to_be_bytes());
        for (name, value) in &self.args {
            write_utf(&mut out, name);
            write_value(&mut out, value);
        }
        out
    }

    /// Deserialize an invocation.
    pub fn decode(data: &[u8]) -> Option<RmiCall> {
        let mut pos = 0;
        if data.get(0..4)? != [0xac, 0xed, 0x00, 0x05] {
            return None;
        }
        pos += 4;
        if *data.get(pos)? != 0x50 {
            return None;
        }
        pos += 1;
        let interface = read_utf(data, &mut pos)?;
        let method = read_utf(data, &mut pos)?;
        pos += 8; // method hash
        let argc = u16::from_be_bytes([*data.get(pos)?, *data.get(pos + 1)?]) as usize;
        pos += 2;
        let mut args = Vec::with_capacity(argc);
        for _ in 0..argc {
            let name = read_utf(data, &mut pos)?;
            args.push((name, read_value(data, &mut pos)?));
        }
        if pos != data.len() {
            return None;
        }
        Some(RmiCall {
            interface,
            method,
            args,
        })
    }

    /// The same logical call as an ACE command would express — used by E3 to
    /// encode identical invocations in both systems.
    pub fn from_cmdline(interface: &str, cmd: &CmdLine) -> RmiCall {
        fn convert(value: &Value) -> RmiValue {
            match value {
                Value::Int(i) => RmiValue::Long(*i),
                Value::Float(f) => RmiValue::Double(*f),
                Value::Word(w) => RmiValue::Str(w.clone()),
                Value::Str(s) => RmiValue::Str(s.clone()),
                Value::Vector(v) => RmiValue::List(v.iter().map(convert_scalar).collect()),
                Value::Array(rows) => RmiValue::List(
                    rows.iter()
                        .map(|row| RmiValue::List(row.iter().map(convert_scalar).collect()))
                        .collect(),
                ),
                // RMI would marshal a `byte[]`; the codec here has no such
                // type, and E3's commands carry none.
                Value::Blob(_) => RmiValue::Str(value.to_wire()),
            }
        }
        fn convert_scalar(s: &Scalar) -> RmiValue {
            match s {
                Scalar::Int(i) => RmiValue::Long(*i),
                Scalar::Float(f) => RmiValue::Double(*f),
                Scalar::Word(w) => RmiValue::Str(w.clone()),
                Scalar::Str(s) => RmiValue::Str(s.clone()),
            }
        }
        RmiCall {
            interface: interface.to_string(),
            method: cmd.name().to_string(),
            args: cmd
                .args()
                .iter()
                .map(|(name, value)| (name.clone(), convert(value)))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_call() -> RmiCall {
        RmiCall {
            interface: "edu.ku.ittc.ace.PTZCamera".into(),
            method: "ptzMove".into(),
            args: vec![
                ("x".into(), RmiValue::Long(10)),
                ("y".into(), RmiValue::Long(-3)),
                ("zoom".into(), RmiValue::Double(1.5)),
                ("mode".into(), RmiValue::Str("absolute".into())),
            ],
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let call = sample_call();
        assert_eq!(RmiCall::decode(&call.encode()), Some(call));
    }

    #[test]
    fn nested_lists_roundtrip() {
        let call = RmiCall {
            interface: "I".into(),
            method: "m".into(),
            args: vec![(
                "matrix".into(),
                RmiValue::List(vec![
                    RmiValue::List(vec![RmiValue::Long(1), RmiValue::Long(2)]),
                    RmiValue::List(vec![RmiValue::Str("a".into())]),
                ]),
            )],
        };
        assert_eq!(RmiCall::decode(&call.encode()), Some(call));
    }

    #[test]
    fn garbage_rejected() {
        assert_eq!(RmiCall::decode(b"not rmi"), None);
        assert_eq!(RmiCall::decode(&[]), None);
        let mut truncated = sample_call().encode();
        truncated.truncate(truncated.len() / 2);
        assert_eq!(RmiCall::decode(&truncated), None);
    }

    #[test]
    fn rmi_wire_is_heavier_than_ace_for_the_same_call() {
        // The paper's efficiency claim, at the codec level.
        let cmd = CmdLine::new("ptzMove")
            .arg("x", 10)
            .arg("y", -3)
            .arg("zoom", 1.5)
            .arg("mode", "absolute");
        let ace_bytes = cmd.to_wire().len();
        let rmi_bytes = RmiCall::from_cmdline("edu.ku.ittc.ace.PTZCamera", &cmd)
            .encode()
            .len();
        assert!(
            rmi_bytes > 5 * ace_bytes,
            "rmi {rmi_bytes} vs ace {ace_bytes}"
        );
    }

    #[test]
    fn from_cmdline_preserves_structure() {
        let cmd = CmdLine::parse("c v={1,2} m={{1},{2,3}} w=word s=\"a b\";").unwrap();
        let call = RmiCall::from_cmdline("I", &cmd);
        assert_eq!(call.method, "c");
        assert_eq!(call.args.len(), 4);
        assert_eq!(
            call.args[0].1,
            RmiValue::List(vec![RmiValue::Long(1), RmiValue::Long(2)])
        );
    }
}
