#include "serve/request.hpp"


namespace silicon::serve {

std::string_view to_string(op_code op) {
    const auto i = static_cast<std::size_t>(op);
    return i < op_names.size() ? op_names[i] : "unknown";
}

std::optional<op_code> op_from_string(std::string_view name) {
    for (int i = 0; i < op_count; ++i) {
        const op_code op = static_cast<op_code>(i);
        if (to_string(op) == name) {
            return op;
        }
    }
    return std::nullopt;
}

const char* primary_metric(op_code op) {
    switch (op) {
        case op_code::cost_tr: return "cost_per_transistor_usd";
        case op_code::gross_die: return "count";
        case op_code::yield: return "yield";
        case op_code::scenario1: return "cost_per_transistor_usd";
        case op_code::scenario2: return "cost_per_transistor_usd";
        case op_code::mc_yield: return "yield";
        case op_code::chiplet: return "cost_per_good_system_usd";
        case op_code::table3:
        case op_code::sweep:
        case op_code::stats:
        case op_code::partition_explore:
            return nullptr;
    }
    return nullptr;
}

}  // namespace silicon::serve
