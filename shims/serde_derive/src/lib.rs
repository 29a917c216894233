//! Offline stand-in for `serde_derive`.
//!
//! Implements `#[derive(Serialize)]`, lowering a type straight into the
//! sibling `serde` shim's JSON `Value`. The parser is
//! deliberately small: it handles plain (non-generic) structs and enums
//! with unit, tuple and struct variants — exactly the shapes this
//! workspace derives on — and rejects anything fancier with a compile
//! error rather than silently mis-serializing it.
//!
//! The generated representation mirrors serde's default JSON behavior:
//! named structs → objects, newtype structs → the inner value, unit
//! variants → strings, data variants → single-key objects.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("generated Serialize impl parses")
}

// ---- a tiny item model ----------------------------------------------------

enum Fields {
    Unit,
    /// Tuple fields (count only; types are recovered by inference).
    Tuple(usize),
    /// Named fields, in declaration order.
    Named(Vec<String>),
}

struct Variant {
    name: String,
    fields: Fields,
}

enum Item {
    Struct {
        name: String,
        fields: Fields,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

// ---- parsing --------------------------------------------------------------

fn parse_item(input: TokenStream) -> Item {
    let mut toks = input.into_iter().peekable();

    // Skip outer attributes (`#[...]`, including doc comments) and
    // visibility.
    loop {
        match toks.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                toks.next();
                match toks.next() {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => {}
                    _ => panic!("serde_derive shim: malformed attribute"),
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                toks.next();
                if let Some(TokenTree::Group(g)) = toks.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        toks.next(); // pub(crate) / pub(super)
                    }
                }
            }
            _ => break,
        }
    }

    let keyword = match toks.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde_derive shim: expected struct/enum, got {other:?}"),
    };
    let name = match toks.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde_derive shim: expected type name, got {other:?}"),
    };
    if let Some(TokenTree::Punct(p)) = toks.peek() {
        if p.as_char() == '<' {
            panic!("serde_derive shim: generic type `{name}` is not supported");
        }
    }

    match keyword.as_str() {
        "struct" => {
            let fields = match toks.next() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Fields::Named(parse_named_fields(g.stream()))
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Fields::Tuple(count_tuple_fields(g.stream()))
                }
                Some(TokenTree::Punct(p)) if p.as_char() == ';' => Fields::Unit,
                other => panic!("serde_derive shim: malformed struct body: {other:?}"),
            };
            Item::Struct { name, fields }
        }
        "enum" => {
            let body = match toks.next() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
                other => panic!("serde_derive shim: malformed enum body: {other:?}"),
            };
            Item::Enum {
                name,
                variants: parse_variants(body),
            }
        }
        other => panic!("serde_derive shim: unsupported item kind `{other}`"),
    }
}

/// Parse `field: Type, ...` from a brace group, returning field names.
fn parse_named_fields(stream: TokenStream) -> Vec<String> {
    let mut fields = Vec::new();
    let mut toks = stream.into_iter().peekable();
    loop {
        // Skip attributes and visibility before the field name.
        loop {
            match toks.peek() {
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    toks.next();
                    toks.next(); // the [...] group
                }
                Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                    toks.next();
                    if let Some(TokenTree::Group(g)) = toks.peek() {
                        if g.delimiter() == Delimiter::Parenthesis {
                            toks.next();
                        }
                    }
                }
                _ => break,
            }
        }
        let Some(tree) = toks.next() else { break };
        let TokenTree::Ident(field) = tree else {
            panic!("serde_derive shim: expected field name, got {tree:?}");
        };
        fields.push(field.to_string());
        match toks.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("serde_derive shim: expected `:` after field, got {other:?}"),
        }
        // Skip the type: consume until a comma at angle-bracket depth 0.
        // Parenthesized/bracketed type parts arrive as single groups, so
        // only `<`/`>` need depth tracking. `->` never appears at depth 0
        // inside a field type without parens around the fn type.
        let mut depth = 0i32;
        for tree in toks.by_ref() {
            if let TokenTree::Punct(p) = &tree {
                match p.as_char() {
                    '<' => depth += 1,
                    '>' => depth -= 1,
                    ',' if depth == 0 => break,
                    _ => {}
                }
            }
        }
    }
    fields
}

/// Count top-level comma-separated fields of a tuple struct/variant.
fn count_tuple_fields(stream: TokenStream) -> usize {
    let mut count = 0usize;
    let mut depth = 0i32;
    let mut saw_tokens = false;
    for tree in stream {
        saw_tokens = true;
        if let TokenTree::Punct(p) = &tree {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth -= 1,
                ',' if depth == 0 => count += 1,
                _ => {}
            }
        }
    }
    if saw_tokens {
        count + 1
    } else {
        0
    }
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let mut variants = Vec::new();
    let mut toks = stream.into_iter().peekable();
    loop {
        // Skip attributes before the variant name.
        while let Some(TokenTree::Punct(p)) = toks.peek() {
            if p.as_char() == '#' {
                toks.next();
                toks.next();
            } else {
                break;
            }
        }
        let Some(tree) = toks.next() else { break };
        let TokenTree::Ident(name) = tree else {
            panic!("serde_derive shim: expected variant name, got {tree:?}");
        };
        let fields = match toks.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let names = parse_named_fields(g.stream());
                toks.next();
                Fields::Named(names)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let n = count_tuple_fields(g.stream());
                toks.next();
                Fields::Tuple(n)
            }
            _ => Fields::Unit,
        };
        // Skip an explicit discriminant (`= expr`) and the trailing comma.
        for tree in toks.by_ref() {
            if let TokenTree::Punct(p) = &tree {
                if p.as_char() == ',' {
                    break;
                }
            }
        }
        variants.push(Variant {
            name: name.to_string(),
            fields,
        });
    }
    variants
}

// ---- codegen --------------------------------------------------------------

/// `::serde::Serialize::to_value(<expr>)`.
fn lower(expr: &str) -> String {
    format!("::serde::Serialize::to_value({expr})")
}

fn array(items: &[String]) -> String {
    format!("::serde::Value::Array(vec![{}])", items.join(", "))
}

/// An object from `(key, value expression)` pairs; keys are field or
/// variant names, so they are distinct.
fn object<'a>(entries: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let entries: Vec<String> = entries
        .into_iter()
        .map(|(k, v)| format!("(\"{k}\".to_string(), {v})"))
        .collect();
    format!(
        "::serde::Value::Object(::serde::Map::from_distinct(vec![{}]))",
        entries.join(", ")
    )
}

fn gen_serialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::Struct { name, fields } => {
            let body = match fields {
                Fields::Unit => "::serde::Value::Null".to_string(),
                Fields::Tuple(1) => lower("&self.0"),
                Fields::Tuple(n) => {
                    let items: Vec<String> =
                        (0..*n).map(|i| lower(&format!("&self.{i}"))).collect();
                    array(&items)
                }
                Fields::Named(names) => object(
                    names
                        .iter()
                        .map(|f| (f.as_str(), lower(&format!("&self.{f}")))),
                ),
            };
            (name, body)
        }
        Item::Enum { name, variants } => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let vn = &v.name;
                    match &v.fields {
                        Fields::Unit => {
                            format!("{name}::{vn} => ::serde::Value::String(\"{vn}\".to_string()),")
                        }
                        Fields::Tuple(1) => {
                            format!(
                                "{name}::{vn}(f0) => {},",
                                object([(vn.as_str(), lower("f0"))])
                            )
                        }
                        Fields::Tuple(n) => {
                            let binds: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
                            let items: Vec<String> = binds.iter().map(|b| lower(b)).collect();
                            format!(
                                "{name}::{vn}({}) => {},",
                                binds.join(", "),
                                object([(vn.as_str(), array(&items))])
                            )
                        }
                        Fields::Named(fields) => {
                            let inner = object(fields.iter().map(|f| (f.as_str(), lower(f))));
                            format!(
                                "{name}::{vn} {{ {} }} => {},",
                                fields.join(", "),
                                object([(vn.as_str(), inner)])
                            )
                        }
                    }
                })
                .collect();
            (name, format!("match self {{\n{}\n}}", arms.join("\n")))
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
         }}"
    )
}
