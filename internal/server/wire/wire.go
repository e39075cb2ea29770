// Package wire is the HTTP wire format of the serving stack, shared by
// the two edge packages (transport and cluster) and decoded by the
// client: the uniform JSON error body, strict request decoding,
// indented JSON responses and Server-Sent Events framing.
//
// Layering: wire is a leaf. It imports only the standard library and
// none of the serving-stack packages — an arch test enforces this — so
// both edge packages can write through it without importing each other.
package wire

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// ErrorDoc is the uniform error body. ValidDesigns is populated only
// when the error is an unknown-design rejection, so clients can
// enumerate what the server accepts without a second request.
type ErrorDoc struct {
	Error        string   `json:"error"`
	ValidDesigns []string `json:"valid_designs,omitempty"`
}

// WriteJSON writes v as an indented JSON response with status code.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// WriteError writes err as an ErrorDoc with status code.
func WriteError(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, ErrorDoc{Error: err.Error()})
}

// DecodeStrict decodes one JSON value from r into v, rejecting unknown
// fields, so every edge agrees on what parses.
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// SSEWriter prepares w for Server-Sent Events and returns the flusher,
// or writes a 501 and returns nil when the connection cannot stream.
func SSEWriter(w http.ResponseWriter) http.Flusher {
	fl, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, http.StatusNotImplemented, fmt.Errorf("streaming unsupported"))
		return nil
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	return fl
}

// WriteSSE emits one event whose payload is already JSON.
func WriteSSE(w http.ResponseWriter, fl http.Flusher, event string, data []byte) {
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	fl.Flush()
}

// WriteSSEJSON emits one event with v marshaled as its payload; a
// marshal failure degrades to an inline error object rather than
// killing the stream.
func WriteSSEJSON(w http.ResponseWriter, fl http.Flusher, event string, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		body = []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	WriteSSE(w, fl, event, body)
}
