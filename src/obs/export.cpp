#include "obs/export.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>

namespace gpunion::obs {

namespace {

std::string json_escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back((v >> (8 * i)) & 0xff);
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back((v >> (8 * i)) & 0xff);
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

void put_string(std::vector<std::uint8_t>& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

struct Reader {
  const std::vector<std::uint8_t>& bytes;
  std::size_t pos = 0;

  bool u32(std::uint32_t* v) {
    if (bytes.size() - pos < 4) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<std::uint32_t>(bytes[pos + i]) << (8 * i);
    }
    pos += 4;
    return true;
  }

  bool u64(std::uint64_t* v) {
    if (bytes.size() - pos < 8) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<std::uint64_t>(bytes[pos + i]) << (8 * i);
    }
    pos += 8;
    return true;
  }

  bool f64(double* v) {
    std::uint64_t bits;
    if (!u64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }

  bool string(std::string* s) {
    std::uint32_t len;
    if (!u32(&len)) return false;
    if (bytes.size() - pos < len) return false;
    s->assign(bytes.begin() + static_cast<std::ptrdiff_t>(pos),
              bytes.begin() + static_cast<std::ptrdiff_t>(pos + len));
    pos += len;
    return true;
  }
};

constexpr std::uint32_t kMagic = 0x52545047;  // "GPTR" little-endian
constexpr std::uint32_t kVersion = 1;
/// Smallest encoded span: three u64 ids, two f64 times and three empty
/// length-prefixed strings.
constexpr std::size_t kMinSpanBytes = 3 * 8 + 2 * 8 + 3 * 4;

}  // namespace

std::string perfetto_trace_json(const std::vector<Span>& spans) {
  // Stable actor -> tid mapping in first-appearance order.
  std::map<std::string, int> tids;
  std::vector<const std::string*> actor_order;
  for (const auto& span : spans) {
    if (tids.emplace(span.actor, static_cast<int>(tids.size()) + 1).second) {
      actor_order.push_back(&span.actor);
    }
  }

  std::ostringstream out;
  out.precision(15);
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const auto* actor : actor_order) {
    if (!first) out << ",";
    first = false;
    out << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << tids[*actor]
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
        << json_escape(*actor) << "\"}}";
  }
  for (const auto& span : spans) {
    if (!first) out << ",";
    first = false;
    out << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << tids[span.actor]
        << ",\"name\":\"" << json_escape(span.stage) << "\",\"ts\":"
        << span.start * 1e6 << ",\"dur\":"
        << std::max(0.0, span.duration()) * 1e6 << ",\"args\":{"
        << "\"trace\":\"" << span.trace_id << "\",\"span\":\"" << span.span_id
        << "\",\"parent\":\"" << span.parent_span << "\",\"detail\":\""
        << json_escape(span.detail) << "\"}}";
  }
  out << "]}";
  return out.str();
}

std::vector<std::uint8_t> encode_spans(const std::vector<Span>& spans) {
  std::vector<std::uint8_t> out;
  out.reserve(64 + spans.size() * 96);
  put_u32(out, kMagic);
  put_u32(out, kVersion);
  put_u64(out, spans.size());
  for (const auto& span : spans) {
    put_u64(out, span.trace_id);
    put_u64(out, span.span_id);
    put_u64(out, span.parent_span);
    put_f64(out, span.start);
    put_f64(out, span.end);
    put_string(out, span.stage);
    put_string(out, span.actor);
    put_string(out, span.detail);
  }
  return out;
}

bool decode_spans(const std::vector<std::uint8_t>& bytes,
                  std::vector<Span>* out) {
  out->clear();
  Reader r{bytes};
  std::uint32_t magic, version;
  std::uint64_t count;
  if (!r.u32(&magic) || magic != kMagic) return false;
  if (!r.u32(&version) || version != kVersion) return false;
  if (!r.u64(&count)) return false;
  // The count is untrusted input: a buffer cannot hold more spans than its
  // remaining bytes allow, so a larger claim is corrupt and must never size
  // the reservation.
  if (count > (bytes.size() - r.pos) / kMinSpanBytes) return false;
  out->reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    Span span;
    if (!r.u64(&span.trace_id) || !r.u64(&span.span_id) ||
        !r.u64(&span.parent_span) || !r.f64(&span.start) ||
        !r.f64(&span.end) || !r.string(&span.stage) ||
        !r.string(&span.actor) || !r.string(&span.detail)) {
      out->clear();
      return false;
    }
    out->push_back(std::move(span));
  }
  if (r.pos != bytes.size()) {  // trailing junk after the last span
    out->clear();
    return false;
  }
  return true;
}

}  // namespace gpunion::obs
