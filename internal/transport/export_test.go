package transport

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"zerber/internal/auth"
)

// SetBinaryBackoff shrinks the binary client's reconnect backoff bounds
// so the reconnect tests converge quickly, and returns a restore
// function.
func SetBinaryBackoff(min, max time.Duration) (restore func()) {
	oldMin, oldMax := binBackoffMin, binBackoffMax
	binBackoffMin, binBackoffMax = min, max
	return func() { binBackoffMin, binBackoffMax = oldMin, oldMax }
}

// ServeApplyBody passes body, as the body of an apply request carrying
// tok, through the binary server's request path (decodeRequest, then
// respond against api) and returns the status of the response the
// connection would be sent: 0 for OK, else the error code.
func ServeApplyBody(api API, tok auth.Token, body []byte) uint16 {
	payload := appendU16(append(appendU64(nil, 1), binMsgApply), uint16(len(tok)))
	payload = append(append(payload, tok...), body...)
	req, frame, _ := decodeRequest(payload) // the header is whole, so always addressed
	if frame == nil {
		frame = (&BinaryServer{api: api}).respond(context.Background(), req)
	}
	defer frame.release()
	in, err := readFrame(bytes.NewReader(frame.b))
	if err != nil {
		panic(fmt.Sprintf("the server built a frame that does not read back: %v", err))
	}
	defer in.release()
	resp, err := decodeBinResponse(in.b)
	if err != nil {
		panic(fmt.Sprintf("the server built a response its client cannot read: %v", err))
	}
	return resp.status
}
