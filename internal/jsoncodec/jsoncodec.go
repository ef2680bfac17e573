// Package jsoncodec holds the repository's one strict-JSON decoder: the
// scenario, traffic, workload and fault-plan file formats (DecodeStrict)
// and the fleet wire (DecodeStrictReader) share one decode, so every
// format rejects the same defects the same way.
package jsoncodec

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"regexp"
)

// errTrailingData reports bytes other than whitespace after the one
// JSON value a document may hold.
var errTrailingData = errors.New("trailing data after the JSON value")

var unknownField = regexp.MustCompile(`json: unknown field "([^"]+)"`)

// DecodeStrict decodes exactly one JSON value from data into v. Unknown
// object fields are rejected at every nesting level, and anything but
// whitespace after the value is rejected as trailing data — found by
// reading the next token and requiring io.EOF, since a decoder's More
// reports false in front of a stray '}' or ']'.
//
// src names the source (a path) for error messages. When it is
// non-empty, errors carry a src:line:col position wherever one can be
// recovered: syntax and type errors from their offsets, unknown fields
// by locating the quoted name. UnmarshalJSON methods pass "" and leave
// positioning to the outermost call, which holds the whole document.
func DecodeStrict(data []byte, v any, src string) error {
	end, err := decode(bytes.NewReader(data), v)
	switch {
	case err == nil:
		return nil
	case end >= 0: // trailing data: point at its first byte
		for end < int64(len(data)) && isSpace(data[end]) {
			end++
		}
		return position(data, src, err, end+1)
	}
	return position(data, src, err, offsetOf(data, err))
}

// DecodeStrictReader is DecodeStrict over a stream, for documents not
// worth holding in memory a second time (request and response bodies):
// the same checks, with errors left unpositioned for the caller to
// wrap.
func DecodeStrictReader(r io.Reader, v any) error {
	_, err := decode(r, v)
	return err
}

// decode is the strict decode both entry points share. On trailing
// data it returns the input offset just past the value, otherwise -1.
func decode(r io.Reader, v any) (int64, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return -1, err
	}
	end := dec.InputOffset()
	if _, err := dec.Token(); err != io.EOF {
		return end, errTrailingData
	}
	return -1, nil
}

// offsetOf recovers the byte offset a decode error refers to, -1 when
// it carries none.
func offsetOf(data []byte, err error) int64 {
	switch e := err.(type) {
	case *json.SyntaxError:
		return e.Offset
	case *json.UnmarshalTypeError:
		return e.Offset
	}
	if m := unknownField.FindStringSubmatch(err.Error()); m != nil {
		if i := bytes.Index(data, []byte(`"`+m[1]+`"`)); i >= 0 {
			return int64(i) + 1
		}
	}
	return -1
}

// position prefixes err with src and, when off is usable, the line and
// column it falls on. An empty src returns err unchanged.
func position(data []byte, src string, err error, off int64) error {
	if src == "" {
		return err
	}
	if off < 0 || off > int64(len(data)) {
		return fmt.Errorf("%s: %w", src, err)
	}
	line, col := 1, 1
	for _, c := range data[:off] {
		col++
		if c == '\n' {
			line++
			col = 1
		}
	}
	return fmt.Errorf("%s:%d:%d: %w", src, line, col, err)
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
