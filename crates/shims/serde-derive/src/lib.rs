//! # serde_derive (shim) — derives for the in-repo `serde` shim
//!
//! Generates `impl serde::Serialize` / `impl serde::Deserialize` for
//! named structs, tuple structs, and enums whose variants are unit,
//! tuple, or struct shaped — the shapes this workspace uses. The input
//! token stream is parsed directly (the environment has no `syn`/`quote`)
//! and the impl is emitted as source text.
//!
//! Encoding matches real serde's externally-tagged default:
//!
//! * named struct → `{"field": ...}` in declaration order;
//! * newtype struct → the inner value;
//! * tuple struct → `[...]`;
//! * unit enum variant → `"Variant"`;
//! * newtype variant → `{"Variant": value}`;
//! * tuple variant → `{"Variant": [...]}`;
//! * struct variant → `{"Variant": {...}}`.
//!
//! Generics are not supported; the derive panics with a clear message if
//! it meets them, which surfaces as a compile error at the derive site.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// What the type under derive looks like.
enum Shape {
    /// `struct S { a: T, b: U }`
    NamedStruct(Vec<String>),
    /// `struct S(T, U);` — field count only.
    TupleStruct(usize),
    /// `enum E { ... }`
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum VariantKind {
    Unit,
    Tuple(usize),
    Struct(Vec<String>),
}

/// Derive `serde::Serialize`.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let (name, shape) = parse_type(input);
    gen_serialize(&name, &shape).parse().unwrap()
}

/// Derive `serde::Deserialize`.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let (name, shape) = parse_type(input);
    gen_deserialize(&name, &shape).parse().unwrap()
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn parse_type(input: TokenStream) -> (String, Shape) {
    let mut iter = input.into_iter().peekable();
    // Skip outer attributes and visibility.
    let mut keyword = None;
    while let Some(tt) = iter.next() {
        match &tt {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                // Attribute: consume the following [...] group.
                let _ = iter.next();
            }
            TokenTree::Ident(id) => {
                let s = id.to_string();
                if s == "struct" || s == "enum" {
                    keyword = Some(s);
                    break;
                }
                // `pub` or other modifiers: skip, plus a possible
                // `(crate)`-style restriction group.
                if s == "pub" {
                    if let Some(TokenTree::Group(g)) = iter.peek() {
                        if g.delimiter() == Delimiter::Parenthesis {
                            let _ = iter.next();
                        }
                    }
                }
            }
            _ => {}
        }
    }
    let keyword = keyword.expect("serde shim derive: expected `struct` or `enum`");
    let name = match iter.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: expected type name, got {other:?}"),
    };
    if let Some(TokenTree::Punct(p)) = iter.peek() {
        if p.as_char() == '<' {
            panic!("serde shim derive: generic types are not supported (type `{name}`)");
        }
    }
    let shape = match iter.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            if keyword == "struct" {
                Shape::NamedStruct(parse_named_fields(g.stream()))
            } else {
                Shape::Enum(parse_variants(g.stream()))
            }
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            assert_eq!(keyword, "struct", "serde shim derive: malformed enum");
            Shape::TupleStruct(count_tuple_fields(g.stream()))
        }
        other => panic!("serde shim derive: unsupported type body: {other:?}"),
    };
    (name, shape)
}

/// Parse `a: T, b: U, ...` field lists, returning field names in order.
fn parse_named_fields(body: TokenStream) -> Vec<String> {
    let mut fields = Vec::new();
    let mut iter = body.into_iter().peekable();
    loop {
        // Skip attributes and visibility before the field name.
        let name = loop {
            match iter.next() {
                None => return fields,
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    let _ = iter.next();
                }
                Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                    if let Some(TokenTree::Group(g)) = iter.peek() {
                        if g.delimiter() == Delimiter::Parenthesis {
                            let _ = iter.next();
                        }
                    }
                }
                Some(TokenTree::Ident(id)) => break id.to_string(),
                Some(other) => {
                    panic!("serde shim derive: unexpected token in field list: {other}")
                }
            }
        };
        match iter.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("serde shim derive: expected `:` after `{name}`, got {other:?}"),
        }
        fields.push(name);
        // Skip the type: consume until a comma at angle-bracket depth 0.
        let mut angle = 0i32;
        for tt in iter.by_ref() {
            if let TokenTree::Punct(p) = tt {
                match p.as_char() {
                    '<' => angle += 1,
                    '>' => angle -= 1,
                    ',' if angle == 0 => break,
                    _ => {}
                }
            }
        }
    }
}

/// Count the fields of a tuple struct/variant body.
fn count_tuple_fields(body: TokenStream) -> usize {
    let mut count = 0usize;
    let mut saw_any = false;
    let mut angle = 0i32;
    let mut expecting = true; // true right after `(` or a separator comma
    for tt in body {
        saw_any = true;
        if let TokenTree::Punct(p) = &tt {
            match p.as_char() {
                '<' => angle += 1,
                '>' => angle -= 1,
                ',' if angle == 0 => {
                    expecting = true;
                    continue;
                }
                _ => {}
            }
        }
        if expecting {
            count += 1;
            expecting = false;
        }
    }
    if saw_any {
        count
    } else {
        0
    }
}

fn parse_variants(body: TokenStream) -> Vec<Variant> {
    let mut variants = Vec::new();
    let mut iter = body.into_iter().peekable();
    loop {
        // Skip attributes before the variant name.
        let name = loop {
            match iter.next() {
                None => return variants,
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    let _ = iter.next();
                }
                Some(TokenTree::Ident(id)) => break id.to_string(),
                Some(other) => {
                    panic!("serde shim derive: unexpected token in enum body: {other}")
                }
            }
        };
        let kind = match iter.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let n = count_tuple_fields(g.stream());
                iter.next();
                VariantKind::Tuple(n)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream());
                iter.next();
                VariantKind::Struct(fields)
            }
            _ => VariantKind::Unit,
        };
        variants.push(Variant { name, kind });
        // Consume up to and including the separating comma (also skips
        // explicit discriminants, which the shim does not interpret).
        for tt in iter.by_ref() {
            if let TokenTree::Punct(p) = &tt {
                if p.as_char() == ',' {
                    break;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

fn gen_serialize(name: &str, shape: &Shape) -> String {
    let body = match shape {
        Shape::NamedStruct(fields) => {
            let pushes: String = fields
                .iter()
                .map(|f| format!("(\"{f}\".to_string(), ::serde::Serialize::to_json(&self.{f})),"))
                .collect();
            format!("::serde::Json::Obj(vec![{pushes}])")
        }
        Shape::TupleStruct(1) => "::serde::Serialize::to_json(&self.0)".to_string(),
        Shape::TupleStruct(n) => {
            let items: String = (0..*n)
                .map(|i| format!("::serde::Serialize::to_json(&self.{i}),"))
                .collect();
            format!("::serde::Json::Arr(vec![{items}])")
        }
        Shape::Enum(variants) => {
            let arms: String = variants
                .iter()
                .map(|v| {
                    let vn = &v.name;
                    match &v.kind {
                        VariantKind::Unit => format!(
                            "{name}::{vn} => ::serde::Json::Str(\"{vn}\".to_string()),"
                        ),
                        VariantKind::Tuple(1) => format!(
                            "{name}::{vn}(f0) => ::serde::Json::Obj(vec![(\"{vn}\".to_string(), ::serde::Serialize::to_json(f0))]),"
                        ),
                        VariantKind::Tuple(n) => {
                            let binds: Vec<String> =
                                (0..*n).map(|i| format!("f{i}")).collect();
                            let items: String = binds
                                .iter()
                                .map(|b| format!("::serde::Serialize::to_json({b}),"))
                                .collect();
                            format!(
                                "{name}::{vn}({}) => ::serde::Json::Obj(vec![(\"{vn}\".to_string(), ::serde::Json::Arr(vec![{items}]))]),",
                                binds.join(", ")
                            )
                        }
                        VariantKind::Struct(fields) => {
                            let binds = fields.join(", ");
                            let items: String = fields
                                .iter()
                                .map(|f| {
                                    format!(
                                        "(\"{f}\".to_string(), ::serde::Serialize::to_json({f})),"
                                    )
                                })
                                .collect();
                            format!(
                                "{name}::{vn} {{ {binds} }} => ::serde::Json::Obj(vec![(\"{vn}\".to_string(), ::serde::Json::Obj(vec![{items}]))]),"
                            )
                        }
                    }
                })
                .collect();
            format!("match self {{ {arms} }}")
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
         \x20   fn to_json(&self) -> ::serde::Json {{ {body} }}\n\
         }}"
    )
}

fn gen_deserialize(name: &str, shape: &Shape) -> String {
    let body = match shape {
        Shape::NamedStruct(fields) => {
            let inits: String = fields
                .iter()
                .map(|f| {
                    format!(
                        "{f}: ::serde::Deserialize::from_json(::serde::Json::field(obj, \"{f}\")?)?,"
                    )
                })
                .collect();
            format!("let obj = v.as_obj()?; Some({name} {{ {inits} }})")
        }
        Shape::TupleStruct(1) => {
            format!("Some({name}(::serde::Deserialize::from_json(v)?))")
        }
        Shape::TupleStruct(n) => {
            let items: String = (0..*n)
                .map(|i| format!("::serde::Deserialize::from_json(arr.get({i})?)?,"))
                .collect();
            format!(
                "let arr = v.as_arr()?; if arr.len() != {n} {{ return None; }} Some({name}({items}))"
            )
        }
        Shape::Enum(variants) => {
            let unit_arms: String = variants
                .iter()
                .filter(|v| matches!(v.kind, VariantKind::Unit))
                .map(|v| format!("\"{vn}\" => Some({name}::{vn}),", vn = v.name))
                .collect();
            let tagged_arms: String = variants
                .iter()
                .filter_map(|v| {
                    let vn = &v.name;
                    match &v.kind {
                        VariantKind::Unit => None,
                        VariantKind::Tuple(1) => Some(format!(
                            "\"{vn}\" => Some({name}::{vn}(::serde::Deserialize::from_json(val)?)),"
                        )),
                        VariantKind::Tuple(n) => {
                            let items: String = (0..*n)
                                .map(|i| {
                                    format!(
                                        "::serde::Deserialize::from_json(arr.get({i})?)?,"
                                    )
                                })
                                .collect();
                            Some(format!(
                                "\"{vn}\" => {{ let arr = val.as_arr()?; if arr.len() != {n} {{ return None; }} Some({name}::{vn}({items})) }}"
                            ))
                        }
                        VariantKind::Struct(fields) => {
                            let inits: String = fields
                                .iter()
                                .map(|f| {
                                    format!(
                                        "{f}: ::serde::Deserialize::from_json(::serde::Json::field(obj, \"{f}\")?)?,"
                                    )
                                })
                                .collect();
                            Some(format!(
                                "\"{vn}\" => {{ let obj = val.as_obj()?; Some({name}::{vn} {{ {inits} }}) }}"
                            ))
                        }
                    }
                })
                .collect();
            format!(
                "if let ::serde::Json::Str(s) = v {{\n\
                 \x20   return match s.as_str() {{ {unit_arms} _ => None }};\n\
                 }}\n\
                 if let ::serde::Json::Obj(o) = v {{\n\
                 \x20   if o.len() == 1 {{\n\
                 \x20       let (tag, val) = &o[0];\n\
                 \x20       let _ = val;\n\
                 \x20       return match tag.as_str() {{ {tagged_arms} _ => None }};\n\
                 \x20   }}\n\
                 }}\n\
                 None"
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
         \x20   fn from_json(v: &::serde::Json) -> Option<Self> {{ {body} }}\n\
         }}"
    )
}
