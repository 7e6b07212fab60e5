//! Line lexer: blanks comments and string/char-literal contents, records
//! line-comment text, and marks `#[cfg(test)]` regions, so no lint can be
//! fooled by a keyword inside a string, a doc comment, or a nested block
//! comment.

/// Per-line views of one source file.
pub(crate) struct FileView {
    /// Lines with comments and string/char-literal contents blanked to
    /// spaces — what the lints scan.
    pub code: Vec<String>,
    /// Whether each line sits in a `#[cfg(test)]` region.
    pub test: Vec<bool>,
    /// The text after a line comment's `//`, when the lexer saw one in
    /// code position (so `//` inside a string never counts).
    pub comment: Vec<Option<String>>,
}

#[derive(Clone, Copy)]
enum LexState {
    Normal,
    /// Nesting depth of `/* */`.
    Block(usize),
    /// Inside a string: `None` for `".."`, `Some(hashes)` for `r#".."#`.
    Str(Option<usize>),
}

pub(crate) fn lex(text: &str) -> FileView {
    let (mut code, mut comment) = (Vec::new(), Vec::new());
    let mut state = LexState::Normal;
    for line in text.lines() {
        let chars: Vec<char> = line.chars().collect();
        let (mut out, mut line_comment, mut i) = (String::new(), None, 0);
        while i < chars.len() {
            let (c, next) = (chars[i], chars.get(i + 1).copied());
            let raw = raw_str_open(&chars, i);
            let n = match state {
                LexState::Block(depth) => {
                    let (n, depth) = match (c, next) {
                        ('/', Some('*')) => (2, depth + 1),
                        ('*', Some('/')) => (2, depth - 1),
                        _ => (1, depth),
                    };
                    state = if depth == 0 {
                        LexState::Normal
                    } else {
                        LexState::Block(depth)
                    };
                    n
                }
                LexState::Str(None) if c == '\\' => 2,
                LexState::Str(raw) => {
                    let hashes = raw.unwrap_or(0);
                    if c == '"' && (1..=hashes).all(|k| chars.get(i + k) == Some(&'#')) {
                        state = LexState::Normal;
                        1 + hashes
                    } else {
                        1
                    }
                }
                LexState::Normal if c == '/' && next == Some('/') => {
                    line_comment = Some(chars[i + 2..].iter().collect::<String>());
                    chars.len() - i
                }
                LexState::Normal if c == '/' && next == Some('*') => {
                    state = LexState::Block(1);
                    2
                }
                LexState::Normal if c == '"' || raw.is_some() => {
                    state = LexState::Str(raw);
                    raw.map_or(1, |hashes| hashes + 2)
                }
                // A char literal closes with a quote after one (possibly
                // escaped) character; any other quote starts a lifetime.
                LexState::Normal if c == '\'' && next == Some('\\') => {
                    let close = (i + 2..chars.len()).find(|&j| chars[j] == '\'');
                    close.map_or(chars.len(), |j| j + 1) - i
                }
                LexState::Normal if c == '\'' && chars.get(i + 2) == Some(&'\'') => 3,
                LexState::Normal => {
                    out.push(c);
                    i += 1;
                    continue;
                }
            };
            out.extend(std::iter::repeat_n(' ', n));
            i += n;
        }
        code.push(out);
        comment.push(line_comment);
    }
    let test = mark_test_regions(&code);
    FileView {
        code,
        test,
        comment,
    }
}

/// `Some(hashes)` when a raw string `r#.."` opens at `i` (and the `r` is
/// not the end of an identifier like `striped_r`).
fn raw_str_open(chars: &[char], i: usize) -> Option<usize> {
    let in_ident = i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_');
    let hashes = chars
        .get(i + 1..)?
        .iter()
        .take_while(|&&c| c == '#')
        .count();
    let opens = chars[i] == 'r' && !in_ident && chars.get(i + 1 + hashes) == Some(&'"');
    opens.then_some(hashes)
}

/// Marks the lines covered by `#[cfg(test)]` items: from the attribute
/// through the matching close brace of the item it gates.
fn mark_test_regions(code: &[String]) -> Vec<bool> {
    let mut test = vec![false; code.len()];
    let mut depth = 0usize;
    let mut region_depth: Option<usize> = None;
    let mut pending = false;

    for (i, line) in code.iter().enumerate() {
        if line.contains("#[cfg(test") {
            pending = true;
        }
        test[i] = region_depth.is_some() || pending;
        for c in line.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if pending && region_depth.is_none() {
                        region_depth = Some(depth);
                        pending = false;
                    }
                }
                '}' => {
                    if region_depth == Some(depth) {
                        region_depth = None;
                    }
                    depth = depth.saturating_sub(1);
                }
                // `#[cfg(test)] use …;` — the attribute gated a
                // braceless item; the region ends here.
                ';' if pending && region_depth.is_none() => pending = false,
                _ => {}
            }
        }
    }
    test
}

#[cfg(test)]
mod test {
    use super::*;

    #[test]
    fn lexer_blanks_comments_and_strings() {
        let v = lex(
            "let x = \"HashMap\"; // HashMap\nlet y = 'a';\n/* HashMap\nHashMap */ let z = 1;\n",
        );
        assert!(!v.code[0].contains("HashMap"), "{}", v.code[0]);
        assert_eq!(v.comment[0].as_deref(), Some(" HashMap"));
        assert!(!v.code[1].contains('a'));
        assert!(!v.code[2].contains("HashMap"));
        assert!(v.code[3].contains("let z"));
        assert!(!v.code[3].contains("HashMap"));
    }

    #[test]
    fn lexer_blanks_string_quotes_entirely() {
        let v = lex("let s = \"a[0].unwrap()\";\nlet r = r#\"x[1]\"#;\nlet c = '\\n';\n");
        assert!(!v.code[0].contains('"'), "{:?}", v.code[0]);
        assert!(!v.code[0].contains("unwrap"));
        assert!(!v.code[1].contains('"'), "{:?}", v.code[1]);
        assert!(!v.code[1].contains("x[1]"));
        assert_eq!(v.code[2].trim_end(), "let c =     ;");
    }

    #[test]
    fn lexer_keeps_lifetimes() {
        let v = lex("impl<'a> Foo<'a> { fn f(&'a self) {} }\n");
        assert!(v.code[0].contains("<'a>"));
    }

    #[test]
    fn cfg_test_regions_cover_the_gated_item() {
        let v = lex("fn a() {}\n#[cfg(test)]\nmod test {\n    fn b() {}\n}\nfn c() {}\n");
        assert_eq!(v.test, vec![false, true, true, true, true, false]);
    }
}
