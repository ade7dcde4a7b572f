package runenv

// PayloadCodec serializes the application payloads a distributed transport
// must put on the wire. When a message crosses an OS-process boundary its
// payload must be serialized; the single-process runtimes never use a codec
// — payloads travel as in-memory references. Kind is the runenv message
// kind; the codec must round-trip every payload the application sends to a
// remote rank.
//
// Decode must be total: any input — truncated, oversized, corrupted — must
// return an error, never panic. Encoders and decoders on both sides of a
// connection must agree on the byte layout per kind (version it: the
// transport's frame header carries a protocol version byte).
type PayloadCodec interface {
	// EncodePayload serializes the payload of one message.
	EncodePayload(kind int, payload any) ([]byte, error)
	// DecodePayload reconstructs a payload from its wire form.
	DecodePayload(kind int, data []byte) (any, error)
}
