//! Tokens and the item model over them: fn body spans, `impl` blocks,
//! and `const` items. The tokenizer reads the lexer's blanked code, so
//! every bracket and word it sees is real code. The parser is not a full
//! Rust parser: it tracks bracket nesting and item-introducer keywords,
//! which is enough to answer "which impl/fn contains token *i*" on the
//! Rust this workspace writes.

use crate::lexer::FileView;

/// One token with its 1-based source line: a *word* (identifier, keyword,
/// or number such as `0xC4A2_2E1C`) or one punctuation mark, with `::`,
/// `->`, `=>`, `..` and `..=` joined.
pub(crate) struct Token {
    pub text: String,
    pub line: usize,
}

impl Token {
    pub fn is(&self, text: &str) -> bool {
        self.text == text
    }

    pub fn is_word(&self) -> bool {
        self.text
            .starts_with(|c: char| c.is_alphanumeric() || c == '_')
    }
}

/// Multi-char punctuation joined into one token, longest first.
const JOINED: [&str; 5] = ["..=", "::", "->", "=>", ".."];

pub(crate) fn tokenize(view: &FileView) -> Vec<Token> {
    let is_word = |c: char| c.is_alphanumeric() || c == '_';
    let mut out = Vec::new();
    for (i, line) in view.code.iter().enumerate() {
        let mut rest = line.trim_start();
        while let Some(c) = rest.chars().next() {
            let len = match JOINED.iter().find(|op| rest.starts_with(**op)) {
                _ if is_word(c) => rest.find(|c| !is_word(c)).unwrap_or(rest.len()),
                Some(op) => op.len(),
                None => c.len_utf8(),
            };
            let (text, line) = (rest[..len].to_string(), i + 1);
            out.push(Token { text, line });
            rest = rest[len..].trim_start();
        }
    }
    out
}

/// One `impl` block.
pub(crate) struct ImplBlock {
    /// Last path segment of the self type (`Decoder`).
    pub type_name: String,
    /// Last path segment of the trait, for trait impls (`Drop`).
    pub trait_name: Option<String>,
    /// Token-index span of the `{ .. }`, inclusive.
    pub span: (usize, usize),
}

/// One `const NAME: ty = value;` item; `value` joins the initializer's
/// tokens with spaces.
pub(crate) struct ConstItem {
    pub name: String,
    pub line: usize,
    pub value: String,
}

/// Everything the parser recovered from one file.
pub(crate) struct ParsedFile {
    pub tokens: Vec<Token>,
    /// Token-index spans (inclusive) of every fn body `{ .. }`.
    pub fn_bodies: Vec<(usize, usize)>,
    pub impls: Vec<ImplBlock>,
    pub consts: Vec<ConstItem>,
}

impl ParsedFile {
    /// The innermost impl block containing token `i`.
    pub fn enclosing_impl(&self, i: usize) -> Option<&ImplBlock> {
        let inside = |im: &&ImplBlock| im.span.0 <= i && i <= im.span.1;
        self.impls
            .iter()
            .filter(inside)
            .min_by_key(|im| im.span.1 - im.span.0)
    }

    /// The innermost fn body containing token `i`.
    pub fn enclosing_fn(&self, i: usize) -> Option<(usize, usize)> {
        let inside = |&(a, b): &(usize, usize)| a <= i && i <= b;
        self.fn_bodies
            .iter()
            .copied()
            .filter(inside)
            .min_by_key(|&(a, b)| b - a)
    }
}

pub(crate) fn parse(tokens: Vec<Token>) -> ParsedFile {
    let (mut fn_bodies, mut impls, mut consts) = (Vec::new(), Vec::<ImplBlock>::new(), Vec::new());
    // Per open `{`: the fn body or impl block it starts, if any.
    let mut stack: Vec<Option<(bool, usize)>> = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let word_next = tokens.get(i + 1).is_some_and(Token::is_word);
        let text = tokens[i].text.as_str();
        if (text == "fn" && word_next) || text == "impl" {
            let open = scan_to(&tokens, i + 1, &["{", ";"]);
            if tokens.get(open).is_some_and(|t| t.is("{")) {
                if text == "fn" {
                    fn_bodies.push((open, open)); // end patched on close
                    stack.push(Some((true, fn_bodies.len() - 1)));
                } else {
                    let (trait_name, type_name) = impl_header(&tokens[i + 1..open]);
                    impls.push(ImplBlock {
                        type_name,
                        trait_name,
                        span: (open, open),
                    });
                    stack.push(Some((false, impls.len() - 1)));
                }
            }
            i = open + 1;
        } else if text == "const" && word_next && tokens.get(i + 2).is_some_and(|t| t.is(":")) {
            // Not `const fn`, not a `const { .. }` block.
            let eq = scan_to(&tokens, i + 3, &["=", ";"]);
            let end = scan_to(&tokens, eq, &[";"]);
            let value = tokens.get(eq + 1..end).unwrap_or_default().iter();
            let value: Vec<&str> = value.map(|t| t.text.as_str()).collect();
            let (name, line) = (tokens[i + 1].text.clone(), tokens[i + 1].line);
            consts.push(ConstItem {
                name,
                line,
                value: value.join(" "),
            });
            i = end + 1;
        } else {
            match text {
                "{" => stack.push(None),
                "}" => match stack.pop().flatten() {
                    Some((true, k)) => fn_bodies[k].1 = i,
                    Some((false, k)) => impls[k].span.1 = i,
                    None => {}
                },
                _ => {}
            }
            i += 1;
        }
    }
    ParsedFile {
        tokens,
        fn_bodies,
        impls,
        consts,
    }
}

/// Index of the first token in `stops` at bracket depth 0 from `from`
/// (`tokens.len()` if none): `(..)`, `[..]` and `{..}` nest, so the `;`
/// of `-> [u8; 512]` does not end a signature.
pub(crate) fn scan_to(tokens: &[Token], from: usize, stops: &[&str]) -> usize {
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(from) {
        if depth == 0 && stops.contains(&t.text.as_str()) {
            return j;
        }
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth = depth.saturating_sub(1),
            _ => {}
        }
    }
    tokens.len()
}

/// `(trait, self type)` of the tokens between `impl` and its `{`:
/// `<'a> fmt::Display for Foo<'a> where ..` → `(Display, Foo)`.
fn impl_header(header: &[Token]) -> (Option<String>, String) {
    // Drop every generic argument list, then cut at `where`.
    let mut depth = 0usize;
    let outside_generics = |t: &&Token| {
        let was = depth;
        depth = match t.text.as_str() {
            "<" => depth + 1,
            ">" => depth.saturating_sub(1),
            _ => depth,
        };
        was == 0 && depth == 0
    };
    let header = header.iter().filter(outside_generics);
    let header: Vec<&Token> = header.take_while(|t| !t.is("where")).collect();
    let name = |ts: &[&Token]| last_path_segment(ts.iter().copied());
    match header.iter().position(|t| t.is("for")) {
        Some(f) => (Some(name(&header[..f])), name(&header[f + 1..])),
        None => (None, name(&header)),
    }
}

/// Last identifier of the leading path in a type, skipping references,
/// lifetimes, and `dyn`/`mut`: `&'a mut fmt::Display` → `Display`.
pub(crate) fn last_path_segment<'a>(ty: impl IntoIterator<Item = &'a Token>) -> String {
    let mut last = String::new();
    let mut it = ty.into_iter();
    while let Some(t) = it.next() {
        match t.text.as_str() {
            "'" => _ = it.next(), // the lifetime's name
            "&" | "::" | "dyn" | "mut" => {}
            _ if t.is_word() => last = t.text.clone(),
            _ => break,
        }
    }
    last
}

#[cfg(test)]
mod test {
    use super::*;
    use crate::lexer::lex;

    fn toks(src: &str) -> Vec<String> {
        tokenize(&lex(src)).iter().map(|t| t.text.clone()).collect()
    }

    #[test]
    fn words_numbers_and_paths() {
        assert_eq!(
            toks("let x = pool::acquire(0xC4A2_2E1C);"),
            [
                "let",
                "x",
                "=",
                "pool",
                "::",
                "acquire",
                "(",
                "0xC4A2_2E1C",
                ")",
                ";"
            ]
        );
    }

    #[test]
    fn ranges_and_arrows() {
        assert_eq!(
            toks("fn f() -> u8 { w[1..=2]; }"),
            ["fn", "f", "(", ")", "->", "u8", "{", "w", "[", "1", "..=", "2", "]", ";", "}"]
        );
    }

    #[test]
    fn strings_leave_no_tokens() {
        assert_eq!(toks("f(\"x.unwrap()\")"), ["f", "(", ")"]);
    }

    fn parsed(src: &str) -> ParsedFile {
        parse(tokenize(&lex(src)))
    }

    #[test]
    fn impl_blocks_carry_type_and_trait() {
        let p = parsed(
            "impl<'a> Decoder<'a> {\n    fn a(&self) {}\n}\nimpl Drop for Decoder<'_> {\n    fn drop(&mut self) {}\n}\nimpl<'a> fmt::Display for &'a mut Foo where Foo: Clone {}\n",
        );
        assert_eq!(p.impls.len(), 3);
        assert_eq!(p.impls[0].type_name, "Decoder");
        assert_eq!(p.impls[0].trait_name, None);
        assert_eq!(p.impls[1].type_name, "Decoder");
        assert_eq!(p.impls[1].trait_name.as_deref(), Some("Drop"));
        assert_eq!(p.impls[2].type_name, "Foo");
        assert_eq!(p.impls[2].trait_name.as_deref(), Some("Display"));
        assert_eq!(p.fn_bodies.len(), 2);
    }

    #[test]
    fn const_items_capture_value_tokens() {
        let p = parsed(
            "pub const CHANNEL_STREAM: u64 = 0xC4A2_2E1C_51A7_0DE1;\npub const fn k(&self) -> usize { self.k }\n",
        );
        assert_eq!(p.consts.len(), 1);
        assert_eq!(p.consts[0].name, "CHANNEL_STREAM");
        assert_eq!(p.consts[0].value, "0xC4A2_2E1C_51A7_0DE1");
        assert_eq!(p.fn_bodies.len(), 1);
    }

    #[test]
    fn array_return_types_and_block_consts_keep_spans_balanced() {
        let p = parsed(
            "const fn build() -> [u8; 4] {\n    [0; 4]\n}\nconst T: [u8; 4] = { let t = build(); t };\nimpl Foo {\n    fn a(&self) {\n        let x = 1;\n    }\n}\n",
        );
        assert_eq!(p.fn_bodies.len(), 2);
        let x = p.tokens.iter().position(|t| t.is("x")).expect("x token");
        assert_eq!(p.enclosing_fn(x), p.fn_bodies.get(1).copied());
        assert_eq!(
            p.enclosing_impl(x).map(|im| im.type_name.as_str()),
            Some("Foo")
        );
        let build = p.tokens.iter().position(|t| t.is("0")).expect("0 token");
        assert_eq!(p.enclosing_fn(build), p.fn_bodies.first().copied());
        assert!(p.enclosing_impl(build).is_none());
    }
}
