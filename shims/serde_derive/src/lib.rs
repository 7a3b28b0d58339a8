//! Offline stand-in for the `serde_derive` proc-macro crate.
//!
//! Implements `#[derive(Serialize)]` and `#[derive(Deserialize)]` against the
//! shim `serde` crate's `Content` tree model, without `syn`/`quote`: the
//! item is parsed directly from the `proc_macro` token stream and the impl is
//! emitted as source text. Supported shapes are exactly what the workspace
//! uses — non-generic structs (named, tuple, unit) and enums (unit, tuple,
//! and struct variants) with the `#[serde(skip)]`, `#[serde(default)]`, and
//! `#[serde(transparent)]` attributes. Anything else fails the build with an
//! explicit message rather than silently misbehaving.

use proc_macro::{Delimiter, Group, TokenStream, TokenTree};
use std::iter::Peekable;

type TokenIter = Peekable<proc_macro::token_stream::IntoIter>;

#[derive(Debug, Default, Clone)]
struct FieldAttrs {
    skip: bool,
    default: bool,
}

#[derive(Debug)]
struct Field {
    name: String,
    attrs: FieldAttrs,
}

#[derive(Debug)]
enum Fields {
    Named(Vec<Field>),
    Tuple(usize),
    Unit,
}

#[derive(Debug)]
struct Variant {
    name: String,
    fields: Fields,
}

#[derive(Debug)]
enum Kind {
    Struct(Fields),
    Enum(Vec<Variant>),
}

#[derive(Debug)]
struct Item {
    name: String,
    transparent: bool,
    kind: Kind,
}

/// Extracts the idents inside `#[serde(...)]`; empty for any other attribute.
fn serde_attr_idents(attr_body: &Group) -> Vec<String> {
    let mut iter = attr_body.stream().into_iter();
    match iter.next() {
        Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
        _ => return Vec::new(),
    }
    match iter.next() {
        Some(TokenTree::Group(inner)) => inner
            .stream()
            .into_iter()
            .filter_map(|tt| match tt {
                TokenTree::Ident(id) => Some(id.to_string()),
                TokenTree::Punct(p) if p.as_char() == ',' => None,
                other => panic!(
                    "serde shim derive: unsupported token `{other}` in #[serde(...)] \
                     (only bare `skip`, `default`, `transparent` are supported)"
                ),
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// Consumes leading `#[...]` attributes, returning the serde field attrs.
fn parse_attrs(iter: &mut TokenIter, transparent: &mut bool) -> FieldAttrs {
    let mut attrs = FieldAttrs::default();
    while matches!(iter.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        iter.next();
        match iter.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => {
                for ident in serde_attr_idents(&g) {
                    match ident.as_str() {
                        "skip" => attrs.skip = true,
                        "default" => attrs.default = true,
                        "transparent" => *transparent = true,
                        other => panic!("serde shim derive: unsupported attribute `{other}`"),
                    }
                }
            }
            other => panic!("serde shim derive: malformed attribute near {other:?}"),
        }
    }
    attrs
}

/// Consumes a visibility qualifier if present.
fn skip_visibility(iter: &mut TokenIter) {
    if matches!(iter.peek(), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        iter.next();
        if matches!(
            iter.peek(),
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis
        ) {
            iter.next();
        }
    }
}

/// Consumes a type (everything up to and including a top-level `,`).
fn skip_type(iter: &mut TokenIter) {
    let mut angle_depth = 0i32;
    while let Some(tt) = iter.peek() {
        match tt {
            TokenTree::Punct(p) => {
                let c = p.as_char();
                if c == '<' {
                    angle_depth += 1;
                } else if c == '>' {
                    angle_depth -= 1;
                } else if c == ',' && angle_depth == 0 {
                    iter.next();
                    return;
                }
                iter.next();
            }
            _ => {
                iter.next();
            }
        }
    }
}

fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let mut iter = stream.into_iter().peekable();
    let mut out = Vec::new();
    while iter.peek().is_some() {
        let mut ignored = false;
        let attrs = parse_attrs(&mut iter, &mut ignored);
        skip_visibility(&mut iter);
        let name = match iter.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => panic!("serde shim derive: expected field name, found {other:?}"),
        };
        match iter.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("serde shim derive: expected `:` after `{name}`, found {other:?}"),
        }
        skip_type(&mut iter);
        out.push(Field { name, attrs });
    }
    out
}

fn parse_tuple_fields(stream: TokenStream) -> usize {
    let mut iter = stream.into_iter().peekable();
    let mut count = 0;
    while iter.peek().is_some() {
        let mut ignored = false;
        let attrs = parse_attrs(&mut iter, &mut ignored);
        if attrs.skip || attrs.default {
            panic!("serde shim derive: serde attributes on tuple fields are unsupported");
        }
        skip_visibility(&mut iter);
        if iter.peek().is_none() {
            break;
        }
        skip_type(&mut iter);
        count += 1;
    }
    count
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let mut iter = stream.into_iter().peekable();
    let mut out = Vec::new();
    while iter.peek().is_some() {
        let mut ignored = false;
        let _ = parse_attrs(&mut iter, &mut ignored);
        let name = match iter.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => panic!("serde shim derive: expected variant name, found {other:?}"),
        };
        let fields = match iter.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let f = Fields::Named(parse_named_fields(g.stream()));
                iter.next();
                f
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let f = Fields::Tuple(parse_tuple_fields(g.stream()));
                iter.next();
                f
            }
            _ => Fields::Unit,
        };
        match iter.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => {
                iter.next();
            }
            Some(TokenTree::Punct(p)) if p.as_char() == '=' => {
                panic!("serde shim derive: explicit enum discriminants are unsupported")
            }
            _ => {}
        }
        out.push(Variant { name, fields });
    }
    out
}

fn parse_item(input: TokenStream) -> Item {
    let mut iter = input.into_iter().peekable();
    let mut transparent = false;
    loop {
        let _ = parse_attrs(&mut iter, &mut transparent);
        skip_visibility(&mut iter);
        let keyword = match iter.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => panic!("serde shim derive: expected item keyword, found {other:?}"),
        };
        let is_enum = match keyword.as_str() {
            "struct" => false,
            "enum" => true,
            // e.g. nothing else is expected, but skip stray idents defensively
            _ => continue,
        };
        let name = match iter.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => panic!("serde shim derive: expected type name, found {other:?}"),
        };
        let kind = match iter.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
                panic!("serde shim derive: generic types are unsupported (deriving `{name}`)")
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                if is_enum {
                    Kind::Enum(parse_variants(g.stream()))
                } else {
                    Kind::Struct(Fields::Named(parse_named_fields(g.stream())))
                }
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Kind::Struct(Fields::Tuple(parse_tuple_fields(g.stream())))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Kind::Struct(Fields::Unit),
            other => panic!("serde shim derive: unsupported item body near {other:?}"),
        };
        return Item {
            name,
            transparent,
            kind,
        };
    }
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.kind {
        Kind::Struct(Fields::Named(fields)) => {
            if item.transparent {
                let inner: Vec<&Field> = fields.iter().filter(|f| !f.attrs.skip).collect();
                assert!(
                    inner.len() == 1,
                    "serde shim derive: #[serde(transparent)] needs exactly one field"
                );
                format!(
                    "::serde::Serialize::serialize(&self.{}, serializer)",
                    inner[0].name
                )
            } else {
                let mut s = String::from(
                    "let mut __fields: ::std::vec::Vec<(::serde::Content, ::serde::Content)> = \
                     ::std::vec::Vec::new();\n",
                );
                for f in fields.iter().filter(|f| !f.attrs.skip) {
                    s.push_str(&format!(
                        "__fields.push((::serde::Content::Str(::std::string::String::from(\
                         \"{0}\")), ::serde::ser::to_content(&self.{0})));\n",
                        f.name
                    ));
                }
                s.push_str(
                    "::serde::Serializer::serialize_content(serializer, \
                     ::serde::Content::Map(__fields))",
                );
                s
            }
        }
        Kind::Struct(Fields::Tuple(len)) => {
            if *len == 1 {
                "::serde::Serialize::serialize(&self.0, serializer)".to_owned()
            } else {
                let items: Vec<String> = (0..*len)
                    .map(|i| format!("::serde::ser::to_content(&self.{i})"))
                    .collect();
                format!(
                    "::serde::Serializer::serialize_content(serializer, \
                     ::serde::Content::Seq(::std::vec![{}]))",
                    items.join(", ")
                )
            }
        }
        Kind::Struct(Fields::Unit) => {
            "::serde::Serializer::serialize_content(serializer, ::serde::Content::Null)".to_owned()
        }
        Kind::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vname = &v.name;
                match &v.fields {
                    Fields::Unit => arms.push_str(&format!(
                        "{name}::{vname} => ::serde::Serializer::serialize_content(serializer, \
                         ::serde::Content::Str(::std::string::String::from(\"{vname}\"))),\n"
                    )),
                    Fields::Tuple(len) => {
                        let binders: Vec<String> = (0..*len).map(|i| format!("__f{i}")).collect();
                        let payload = if *len == 1 {
                            "::serde::ser::to_content(__f0)".to_owned()
                        } else {
                            let items: Vec<String> = binders
                                .iter()
                                .map(|b| format!("::serde::ser::to_content({b})"))
                                .collect();
                            format!("::serde::Content::Seq(::std::vec![{}])", items.join(", "))
                        };
                        arms.push_str(&format!(
                            "{name}::{vname}({binds}) => \
                             ::serde::Serializer::serialize_content(serializer, \
                             ::serde::Content::Map(::std::vec![(::serde::Content::Str(\
                             ::std::string::String::from(\"{vname}\")), {payload})])),\n",
                            binds = binders.join(", ")
                        ));
                    }
                    Fields::Named(fields) => {
                        let binders: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                        let items: Vec<String> = fields
                            .iter()
                            .filter(|f| !f.attrs.skip)
                            .map(|f| {
                                format!(
                                    "(::serde::Content::Str(::std::string::String::from(\
                                     \"{0}\")), ::serde::ser::to_content({0}))",
                                    f.name
                                )
                            })
                            .collect();
                        arms.push_str(&format!(
                            "{name}::{vname} {{ {binds} }} => \
                             ::serde::Serializer::serialize_content(serializer, \
                             ::serde::Content::Map(::std::vec![(::serde::Content::Str(\
                             ::std::string::String::from(\"{vname}\")), \
                             ::serde::Content::Map(::std::vec![{items}]))])),\n",
                            binds = binders.join(", "),
                            items = items.join(", ")
                        ));
                    }
                }
            }
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn serialize<__S: ::serde::Serializer>(&self, serializer: __S) \
         -> ::core::result::Result<__S::Ok, __S::Error> {{\n{body}\n}}\n}}\n"
    )
}

fn named_field_builders(fields: &[Field], owner: &str) -> String {
    fields
        .iter()
        .map(|f| {
            if f.attrs.skip {
                format!("{}: ::core::default::Default::default(),\n", f.name)
            } else if f.attrs.default {
                format!(
                    "{0}: ::serde::de::take_field_or_default::<_, __D::Error>(&mut __fields, \"{0}\", \
                     \"{owner}\")?,\n",
                    f.name
                )
            } else {
                format!(
                    "{0}: ::serde::de::take_field::<_, __D::Error>(&mut __fields, \"{0}\", \"{owner}\")?,\n",
                    f.name
                )
            }
        })
        .collect()
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.kind {
        Kind::Struct(Fields::Named(fields)) => {
            if item.transparent {
                let inner: Vec<&Field> = fields.iter().filter(|f| !f.attrs.skip).collect();
                assert!(
                    inner.len() == 1,
                    "serde shim derive: #[serde(transparent)] needs exactly one field"
                );
                let mut builders = format!(
                    "{}: ::serde::de::from_content::<_, __D::Error>(__content)?,\n",
                    inner[0].name
                );
                for f in fields.iter().filter(|f| f.attrs.skip) {
                    builders.push_str(&format!(
                        "{}: ::core::default::Default::default(),\n",
                        f.name
                    ));
                }
                format!("::core::result::Result::Ok({name} {{\n{builders}}})")
            } else {
                format!(
                    "let mut __fields = \
                     ::serde::de::content_into_fields::<__D::Error>(__content, \"{name}\")?;\n\
                     let _ = &mut __fields;\n\
                     ::core::result::Result::Ok({name} {{\n{builders}}})",
                    builders = named_field_builders(fields, name)
                )
            }
        }
        Kind::Struct(Fields::Tuple(len)) => {
            if *len == 1 {
                format!(
                    "::core::result::Result::Ok({name}(::serde::de::from_content::<_, __D::Error>(__content)?))"
                )
            } else {
                let items: Vec<String> = (0..*len)
                    .map(|_| {
                        format!(
                            "::serde::de::from_content::<_, __D::Error>(::serde::de::next_element::<__D::Error>(\
                             &mut __iter, \"{name}\")?)?"
                        )
                    })
                    .collect();
                format!(
                    "let mut __iter = \
                     ::serde::de::content_into_seq::<__D::Error>(__content, \"{name}\")?\
                     .into_iter();\n\
                     ::core::result::Result::Ok({name}({items}))",
                    items = items.join(", ")
                )
            }
        }
        Kind::Struct(Fields::Unit) => {
            format!("let _ = __content;\n::core::result::Result::Ok({name})")
        }
        Kind::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut payload_arms = String::new();
            for v in variants {
                let vname = &v.name;
                match &v.fields {
                    Fields::Unit => unit_arms.push_str(&format!(
                        "\"{vname}\" => ::core::result::Result::Ok({name}::{vname}),\n"
                    )),
                    Fields::Tuple(len) => {
                        if *len == 1 {
                            payload_arms.push_str(&format!(
                                "\"{vname}\" => ::core::result::Result::Ok({name}::{vname}(\
                                 ::serde::de::from_content::<_, __D::Error>(__value)?)),\n"
                            ));
                        } else {
                            let items: Vec<String> = (0..*len)
                                .map(|_| {
                                    format!(
                                        "::serde::de::from_content(\
                                         ::serde::de::next_element::<__D::Error>(&mut __iter, \
                                         \"{name}::{vname}\")?)?"
                                    )
                                })
                                .collect();
                            payload_arms.push_str(&format!(
                                "\"{vname}\" => {{\nlet mut __iter = \
                                 ::serde::de::content_into_seq::<__D::Error>(__value, \
                                 \"{name}::{vname}\")?.into_iter();\n\
                                 ::core::result::Result::Ok({name}::{vname}({items}))\n}},\n",
                                items = items.join(", ")
                            ));
                        }
                    }
                    Fields::Named(fields) => {
                        payload_arms.push_str(&format!(
                            "\"{vname}\" => {{\nlet mut __fields = \
                             ::serde::de::content_into_fields::<__D::Error>(__value, \
                             \"{name}::{vname}\")?;\nlet _ = &mut __fields;\n\
                             ::core::result::Result::Ok({name}::{vname} {{\n{builders}}})\n}},\n",
                            builders = named_field_builders(fields, &format!("{name}::{vname}"))
                        ));
                    }
                }
            }
            format!(
                "match __content {{\n\
                 ::serde::Content::Str(__variant) => match __variant.as_str() {{\n\
                 {unit_arms}\
                 __other => ::core::result::Result::Err(\
                 <__D::Error as ::serde::de::Error>::custom(::std::format!(\
                 \"unknown variant `{{}}` of `{name}`\", __other))),\n\
                 }},\n\
                 ::serde::Content::Map(mut __entries) if __entries.len() == 1 => {{\n\
                 let (__key, __value) = __entries.pop().expect(\"length checked\");\n\
                 let __key = match __key {{\n\
                 ::serde::Content::Str(__s) => __s,\n\
                 __other => return ::core::result::Result::Err(\
                 <__D::Error as ::serde::de::Error>::custom(::std::format!(\
                 \"expected a string variant key for `{name}`, found {{:?}}\", __other))),\n\
                 }};\n\
                 let _ = &__value;\n\
                 match __key.as_str() {{\n\
                 {payload_arms}\
                 __other => ::core::result::Result::Err(\
                 <__D::Error as ::serde::de::Error>::custom(::std::format!(\
                 \"unknown variant `{{}}` of `{name}`\", __other))),\n\
                 }}\n\
                 }},\n\
                 __other => ::core::result::Result::Err(\
                 <__D::Error as ::serde::de::Error>::custom(::std::format!(\
                 \"invalid content for enum `{name}`: {{:?}}\", __other))),\n\
                 }}"
            )
        }
    };
    format!(
        "impl<'de> ::serde::Deserialize<'de> for {name} {{\n\
         fn deserialize<__D: ::serde::Deserializer<'de>>(deserializer: __D) \
         -> ::core::result::Result<Self, __D::Error> {{\n\
         let __content = ::serde::Deserializer::deserialize_content(deserializer)?;\n\
         let _ = &__content;\n\
         {body}\n}}\n}}\n"
    )
}

/// Derives `serde::Serialize` for the supported item shapes.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("serde shim derive: generated Serialize impl parses")
}

/// Derives `serde::Deserialize` for the supported item shapes.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("serde shim derive: generated Deserialize impl parses")
}
