package comm

import (
	"fmt"
	"sync"
)

// Payload codec registry. The simulated runtime passes payloads between
// ranks as in-memory values, but the TCP transport has to serialize them.
// Rather than teach the transport about sampler-private message types (an
// import cycle: sampling depends on comm), packages that send payloads
// register a Codec for each type at init time; the transport encodes
// through EncodePayload and decodes through DecodePayload, so a payload
// round-trips the wire as exactly the concrete type the receiving kernel
// type-asserts on. Kinds panic on collision at registration, so a kind
// clash is a startup failure, not silent wire corruption.

// Codec (de)serializes one concrete payload type for the wire.
type Codec struct {
	// Kind tags the encoding on the wire; it must be unique across the
	// process.
	Kind uint16
	// Match reports whether v is this codec's concrete type.
	Match func(v any) bool
	// Encode serializes v (Match(v) is true).
	Encode func(v any) []byte
	// Decode reverses Encode; it must return the same concrete type the
	// sender passed, since kernels type-assert on received payloads.
	Decode func(data []byte) (any, error)
}

var (
	codecMu     sync.RWMutex
	codecByKind = map[uint16]Codec{}
	codecList   []Codec
)

// RegisterCodec installs a payload codec, typically from an init function
// of the package that owns the payload type. It panics on a duplicate kind
// or a nil hook — codec registration is process wiring, not runtime input.
func RegisterCodec(c Codec) {
	if c.Match == nil || c.Encode == nil || c.Decode == nil {
		panic("comm: codec with nil hooks")
	}
	codecMu.Lock()
	defer codecMu.Unlock()
	if _, dup := codecByKind[c.Kind]; dup {
		panic(fmt.Sprintf("comm: duplicate codec kind %d", c.Kind))
	}
	codecByKind[c.Kind] = c
	codecList = append(codecList, c)
}

// EncodePayload serializes a payload for the wire, returning its kind tag
// and encoded bytes. The payload's type must have a registered codec.
func EncodePayload(v any) (kind uint16, data []byte, err error) {
	codecMu.RLock()
	defer codecMu.RUnlock()
	for _, c := range codecList {
		if c.Match(v) {
			return c.Kind, c.Encode(v), nil
		}
	}
	return 0, nil, fmt.Errorf("comm: no payload codec for %T", v)
}

// DecodePayload reverses EncodePayload.
func DecodePayload(kind uint16, data []byte) (any, error) {
	codecMu.RLock()
	c, ok := codecByKind[kind]
	codecMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("comm: unknown payload kind %d", kind)
	}
	return c.Decode(data)
}
