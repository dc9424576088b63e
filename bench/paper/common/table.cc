#include "common/table.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace genesys
{

Table::Table(std::string title) : title_(std::move(title)) {}

void
Table::setHeader(std::vector<std::string> header)
{
    header_ = std::move(header);
}

void
Table::addRow(std::vector<std::string> row)
{
    rows_.push_back(std::move(row));
}

std::string
Table::num(double v, int precision)
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(precision) << v;
    return oss.str();
}

std::string
Table::sci(double v, int precision)
{
    std::ostringstream oss;
    oss << std::scientific << std::setprecision(precision) << v;
    return oss.str();
}

std::string
Table::integer(long long v)
{
    return std::to_string(v);
}

void
Table::print(std::ostream &os) const
{
    std::vector<size_t> widths;
    auto account = [&widths](const std::vector<std::string> &row) {
        if (widths.size() < row.size())
            widths.resize(row.size(), 0);
        for (size_t i = 0; i < row.size(); ++i)
            widths[i] = std::max(widths[i], row[i].size());
    };
    account(header_);
    for (const auto &r : rows_)
        account(r);

    if (!title_.empty())
        os << "== " << title_ << " ==\n";

    auto emit = [&](const std::vector<std::string> &row) {
        for (size_t i = 0; i < row.size(); ++i) {
            os << std::left << std::setw(static_cast<int>(widths[i]) + 2)
               << row[i];
        }
        os << "\n";
    };
    if (!header_.empty()) {
        emit(header_);
        size_t total = 0;
        for (size_t w : widths)
            total += w + 2;
        os << std::string(total, '-') << "\n";
    }
    for (const auto &r : rows_)
        emit(r);
}

} // namespace genesys
