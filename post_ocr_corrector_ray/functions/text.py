"""Text normalization semantics from the reference, as pure functions.

The three functions here define the exact bytes every downstream stage sees:

- ``normalize_whitespace`` — the ``get_line`` read-side contract
  (reference: src/util/data_functions.py:13-28): every run of whitespace
  collapses to a single ASCII space; a leading whitespace run is dropped
  entirely.  A *trailing* run still collapses to one ``" "`` (it is NOT
  stripped — callers that need stripping do it explicitly, exactly like the
  reference call sites).
- ``detokenize`` — ``sentence_to_string`` (reference:
  src/corpus/serbian/to_plain_text.py:16-28): join tokens with single spaces;
  a ``<g/>`` tag glues the next token onto the previous one with no separator.
- ``tokenize_ws`` — ``to_correct.strip().split()`` (reference:
  src/baselines/dictionary_corrector.py:101).

``str.isspace`` semantics (unicode whitespace incl. NBSP, ideographic space,
unicode line separators) are preserved: ``str.split()`` with no argument
splits on exactly the code points for which ``str.isspace()`` is true (checked
over all of Unicode, 0 mismatches), so the C split kernel is the normalizer.
"""

from __future__ import annotations

NO_SPACE_TAG = "<g/>"


def normalize_whitespace(text: str) -> str:
    """Collapse every whitespace run to one " "; drop a leading run.

    Reference semantics: src/util/data_functions.py:21-25 (the in-loop branch
    of ``get_line``).  Newlines never survive (they are whitespace); a string
    of only whitespace normalizes to "".  Computed as the words joined by
    single spaces, plus one " " when the text has a word and ends in
    whitespace.
    """
    words = text.split()
    out = " ".join(words)
    if words and text[-1].isspace():
        out += " "
    return out


def detokenize(tokens: list[str]) -> str:
    """Join tokens with single spaces; ``<g/>`` glues the next token on.

    Reference semantics: src/corpus/serbian/to_plain_text.py:16-28.  Like the
    reference, a ``<g/>`` appearing before any real token raises IndexError —
    callers guarantee the stream starts with a token.
    """
    parts: list[str] = []
    glue_next = False
    for tok in tokens:
        if tok == NO_SPACE_TAG:
            glue_next = True
            continue
        if glue_next:
            parts[-1] += tok
            glue_next = False
        else:
            parts.append(tok)
    return " ".join(parts)


def tokenize_ws(text: str) -> list[str]:
    """``text.strip().split()`` — the dictionary corrector's tokenizer."""
    return text.strip().split()
