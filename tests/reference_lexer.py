"""Character-loop reference for the source tokenizer in ``archdelta.model``.

These are the loops the extractor used before it tokenized each file in one
pass.  Tests compare ``lexed_views`` and ``normalize_source_text`` against
them on text without ``\"\"\"`` text blocks, which the loops did not know.
"""

from __future__ import annotations


def blank_comments(text: str) -> str:
    """Replace comment characters with spaces, preserving offsets."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == '"' or c == "'":
            quote = c
            i += 1
            while i < n:
                if text[i] == "\\":
                    i += 2
                    continue
                if text[i] == quote:
                    i += 1
                    break
                i += 1
            continue
        if c == "/" and i + 1 < n:
            nxt = text[i + 1]
            if nxt == "/":
                while i < n and text[i] != "\n":
                    out[i] = " "
                    i += 1
                continue
            if nxt == "*":
                end = text.find("*/", i + 2)
                stop = n if end < 0 else end + 2
                while i < stop:
                    if text[i] != "\n":
                        out[i] = " "
                    i += 1
                continue
        i += 1
    return "".join(out)


def blank_strings(text: str) -> str:
    """Blank the contents of string/char literals, keeping the quotes."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == '"' or c == "'":
            quote = c
            i += 1
            while i < n:
                if text[i] == "\\":
                    out[i] = " "
                    if i + 1 < n:
                        out[i + 1] = " "
                    i += 2
                    continue
                if text[i] == quote:
                    i += 1
                    break
                out[i] = " "
                i += 1
            continue
        i += 1
    return "".join(out)


def normalize_source_text(text: str) -> str:
    """Comments dropped, whitespace collapsed outside literals."""
    blanked = blank_comments(text)
    out: list[str] = []
    pending_space = False
    i, n = 0, len(blanked)
    while i < n:
        c = blanked[i]
        if c == '"' or c == "'":
            if pending_space and out:
                out.append(" ")
            pending_space = False
            quote = c
            out.append(c)
            i += 1
            while i < n:
                out.append(blanked[i])
                if blanked[i] == "\\" and i + 1 < n:
                    out.append(blanked[i + 1])
                    i += 2
                    continue
                if blanked[i] == quote:
                    i += 1
                    break
                i += 1
            continue
        if c.isspace():
            pending_space = True
            i += 1
            continue
        if pending_space and out:
            out.append(" ")
        pending_space = False
        out.append(c)
        i += 1
    return "".join(out)
