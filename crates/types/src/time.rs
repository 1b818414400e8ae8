//! Time: wall-clock concepts used by CADEL's `<TimeSpec>` / `<PeriodSpec>`
//! grammar (times of day, dates, weekdays, named day-parts) and the
//! simulated clock driving the discrete-event substrate.

use crate::error::ParseTimeError;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::str::FromStr;

/// Minutes in a day.
const DAY_MINUTES: u32 = 24 * 60;
/// Milliseconds in a minute.
const MINUTE_MILLIS: u64 = 60_000;
/// Milliseconds in a day.
const DAY_MILLIS: u64 = DAY_MINUTES as u64 * MINUTE_MILLIS;

/// A time of day with minute resolution, `00:00 ..= 23:59`.
///
/// # Example
///
/// ```
/// use cadel_types::TimeOfDay;
///
/// let t: TimeOfDay = "18:30".parse().unwrap();
/// assert_eq!(t, TimeOfDay::hm(18, 30).unwrap());
/// assert_eq!("6 pm".parse::<TimeOfDay>().unwrap(), TimeOfDay::hm(18, 0).unwrap());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimeOfDay {
    minutes: u16,
}

impl TimeOfDay {
    /// Midnight (`00:00`).
    pub const MIDNIGHT: TimeOfDay = TimeOfDay { minutes: 0 };
    /// Noon (`12:00`).
    pub const NOON: TimeOfDay = TimeOfDay { minutes: 12 * 60 };

    /// Creates a time of day from hour and minute.
    ///
    /// Returns `None` if `hour > 23` or `minute > 59`.
    pub fn hm(hour: u8, minute: u8) -> Option<TimeOfDay> {
        if hour > 23 || minute > 59 {
            return None;
        }
        Some(TimeOfDay {
            minutes: hour as u16 * 60 + minute as u16,
        })
    }

    /// Creates a time of day from minutes since midnight, wrapping past
    /// 24 h (so `25 * 60` is `01:00`).
    pub fn from_minutes(minutes: u32) -> TimeOfDay {
        TimeOfDay {
            minutes: (minutes % DAY_MINUTES) as u16,
        }
    }

    /// Minutes since midnight.
    pub fn minutes(self) -> u16 {
        self.minutes
    }

    /// The hour component (0–23).
    pub fn hour(self) -> u8 {
        (self.minutes / 60) as u8
    }

    /// The minute component (0–59).
    pub fn minute(self) -> u8 {
        (self.minutes % 60) as u8
    }
}

impl fmt::Debug for TimeOfDay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:02}:{:02}", self.hour(), self.minute())
    }
}

impl fmt::Display for TimeOfDay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl FromStr for TimeOfDay {
    type Err = ParseTimeError;

    /// Accepts `"18:30"`, `"6 pm"`, `"6:30 am"`, `"noon"`, `"midnight"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let raw = s.trim().to_ascii_lowercase();
        match raw.as_str() {
            "noon" => return Ok(TimeOfDay::NOON),
            "midnight" => return Ok(TimeOfDay::MIDNIGHT),
            _ => {}
        }
        let (body, meridiem) = if let Some(b) = raw.strip_suffix("am") {
            (b.trim(), Some(false))
        } else if let Some(b) = raw.strip_suffix("pm") {
            (b.trim(), Some(true))
        } else {
            (raw.as_str(), None)
        };
        let (h_str, m_str) = match body.split_once(':') {
            Some((h, m)) => (h, m),
            None => (body, "0"),
        };
        let hour: u8 = h_str.trim().parse().map_err(|_| ParseTimeError::new(s))?;
        let minute: u8 = m_str.trim().parse().map_err(|_| ParseTimeError::new(s))?;
        let hour = match meridiem {
            Some(pm) => {
                if hour == 0 || hour > 12 {
                    return Err(ParseTimeError::new(s));
                }
                match (pm, hour) {
                    (false, 12) => 0,
                    (false, h) => h,
                    (true, 12) => 12,
                    (true, h) => h + 12,
                }
            }
            None => hour,
        };
        TimeOfDay::hm(hour, minute).ok_or_else(|| ParseTimeError::new(s))
    }
}

/// Days of the week for `"every Monday"` date specs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum Weekday {
    Monday,
    Tuesday,
    Wednesday,
    Thursday,
    Friday,
    Saturday,
    Sunday,
}

impl Weekday {
    /// All weekdays in order, Monday first.
    pub const ALL: [Weekday; 7] = [
        Weekday::Monday,
        Weekday::Tuesday,
        Weekday::Wednesday,
        Weekday::Thursday,
        Weekday::Friday,
        Weekday::Saturday,
        Weekday::Sunday,
    ];

    /// Index with Monday = 0 … Sunday = 6.
    pub fn index(self) -> u8 {
        Weekday::ALL.iter().position(|w| *w == self).unwrap() as u8
    }

    /// The weekday `days` after `self`.
    pub fn advance(self, days: u64) -> Weekday {
        Weekday::ALL[((self.index() as u64 + days) % 7) as usize]
    }

    /// Parses an English weekday name, case-insensitive, full or
    /// three-letter form. Returns `None` for unknown words.
    pub fn from_word(word: &str) -> Option<Weekday> {
        match word.to_ascii_lowercase().as_str() {
            "monday" | "mon" => Some(Weekday::Monday),
            "tuesday" | "tue" => Some(Weekday::Tuesday),
            "wednesday" | "wed" => Some(Weekday::Wednesday),
            "thursday" | "thu" => Some(Weekday::Thursday),
            "friday" | "fri" => Some(Weekday::Friday),
            "saturday" | "sat" => Some(Weekday::Saturday),
            "sunday" | "sun" => Some(Weekday::Sunday),
            _ => None,
        }
    }
}

impl fmt::Display for Weekday {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A calendar date (proleptic Gregorian).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date {
    year: i32,
    month: u8,
    day: u8,
}

impl Date {
    /// Creates a date, validating month and day-of-month.
    pub fn new(year: i32, month: u8, day: u8) -> Option<Date> {
        if month == 0 || month > 12 || day == 0 {
            return None;
        }
        if day > days_in_month(year, month) {
            return None;
        }
        Some(Date { year, month, day })
    }

    /// The year.
    pub fn year(self) -> i32 {
        self.year
    }

    /// The month (1–12).
    pub fn month(self) -> u8 {
        self.month
    }

    /// The day of month (1–31).
    pub fn day(self) -> u8 {
        self.day
    }

    /// The weekday of this date (Zeller's congruence).
    pub fn weekday(self) -> Weekday {
        let (mut y, mut m) = (self.year, self.month as i32);
        if m < 3 {
            m += 12;
            y -= 1;
        }
        let k = y.rem_euclid(100);
        let j = y.div_euclid(100);
        let q = self.day as i32;
        let h = (q + (13 * (m + 1)) / 5 + k + k / 4 + j / 4 + 5 * j).rem_euclid(7);
        // h: 0 = Saturday, 1 = Sunday, 2 = Monday, ...
        match h {
            0 => Weekday::Saturday,
            1 => Weekday::Sunday,
            2 => Weekday::Monday,
            3 => Weekday::Tuesday,
            4 => Weekday::Wednesday,
            5 => Weekday::Thursday,
            _ => Weekday::Friday,
        }
    }

    /// The date `days` after `self`.
    ///
    /// # Panics
    ///
    /// When the year leaves `i32` (more than about 780 billion days
    /// ahead; a [`SimTime`] reaches at most about 213 billion).
    pub fn advance(self, mut days: u64) -> Date {
        let mut d = self;
        // The Gregorian calendar repeats every 400 years, 146,097 days,
        // so whole cycles move only the year; the walk below then takes
        // at most 4,800 months however far ahead the date is.
        let cycles = days / DAYS_PER_400_YEARS;
        days %= DAYS_PER_400_YEARS;
        d.year = i32::try_from(cycles * 400)
            .ok()
            .and_then(|years| d.year.checked_add(years))
            .expect("the date's year fits in an i32");
        while days > 0 {
            let dim = days_in_month(d.year, d.month);
            let remaining_in_month = (dim - d.day) as u64;
            if days <= remaining_in_month {
                d.day += days as u8;
                return d;
            }
            days -= remaining_in_month + 1;
            d.day = 1;
            if d.month == 12 {
                d.month = 1;
                d.year += 1;
            } else {
                d.month += 1;
            }
        }
        d
    }
}

/// Days in one 400-year Gregorian cycle.
const DAYS_PER_400_YEARS: u64 = 146_097;

fn is_leap_year(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

fn days_in_month(year: i32, month: u8) -> u8 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap_year(year) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

impl fmt::Debug for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl FromStr for Date {
    type Err = ParseTimeError;

    /// Parses ISO `YYYY-MM-DD`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.trim().splitn(3, '-');
        let year = parts
            .next()
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| ParseTimeError::new(s))?;
        let month = parts
            .next()
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| ParseTimeError::new(s))?;
        let day = parts
            .next()
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| ParseTimeError::new(s))?;
        Date::new(year, month, day).ok_or_else(|| ParseTimeError::new(s))
    }
}

/// Named parts of the day used by CADEL phrases such as "in evening" or
/// "at night".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum DayPart {
    Morning,
    Afternoon,
    Evening,
    Night,
}

impl DayPart {
    /// The wall-clock window conventionally covered by this day part.
    ///
    /// Morning 06:00–12:00, afternoon 12:00–17:00, evening 17:00–22:00,
    /// night 22:00–06:00 (wrapping midnight).
    pub fn window(self) -> TimeWindow {
        let hm = |h: u8| TimeOfDay::hm(h, 0).expect("static hour is valid");
        match self {
            DayPart::Morning => TimeWindow::new(hm(6), hm(12)),
            DayPart::Afternoon => TimeWindow::new(hm(12), hm(17)),
            DayPart::Evening => TimeWindow::new(hm(17), hm(22)),
            DayPart::Night => TimeWindow::new(hm(22), hm(6)),
        }
    }

    /// Parses "morning" / "afternoon" / "evening" / "night",
    /// case-insensitive.
    pub fn from_word(word: &str) -> Option<DayPart> {
        match word.to_ascii_lowercase().as_str() {
            "morning" => Some(DayPart::Morning),
            "afternoon" => Some(DayPart::Afternoon),
            "evening" => Some(DayPart::Evening),
            "night" => Some(DayPart::Night),
            _ => None,
        }
    }
}

impl fmt::Display for DayPart {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A half-open daily window `[start, end)` of wall-clock time, possibly
/// wrapping midnight (`22:00 → 06:00`).
///
/// A window with `start == end` covers the whole day.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TimeWindow {
    start: TimeOfDay,
    end: TimeOfDay,
}

impl TimeWindow {
    /// The window covering the entire day.
    pub const ALL_DAY: TimeWindow = TimeWindow {
        start: TimeOfDay::MIDNIGHT,
        end: TimeOfDay::MIDNIGHT,
    };

    /// Creates the window `[start, end)`; wraps midnight when
    /// `end <= start` (except that `start == end` means all day).
    pub fn new(start: TimeOfDay, end: TimeOfDay) -> TimeWindow {
        TimeWindow { start, end }
    }

    /// The inclusive start of the window.
    pub fn start(self) -> TimeOfDay {
        self.start
    }

    /// The exclusive end of the window.
    pub fn end(self) -> TimeOfDay {
        self.end
    }

    /// Whether the window wraps past midnight.
    pub fn wraps(self) -> bool {
        self.end < self.start
    }

    /// Whether the window covers the whole day.
    pub fn is_all_day(self) -> bool {
        self.start == self.end
    }

    /// Whether `t` falls inside the window.
    pub fn contains(self, t: TimeOfDay) -> bool {
        if self.is_all_day() {
            return true;
        }
        if self.wraps() {
            t >= self.start || t < self.end
        } else {
            t >= self.start && t < self.end
        }
    }

    /// Decomposes into non-wrapping `[start, end)` minute intervals.
    fn segments(self) -> Vec<(u32, u32)> {
        let s = self.start.minutes() as u32;
        let e = self.end.minutes() as u32;
        if self.is_all_day() {
            vec![(0, DAY_MINUTES)]
        } else if self.wraps() {
            vec![(s, DAY_MINUTES), (0, e)]
        } else {
            vec![(s, e)]
        }
    }

    /// Whether two windows share at least one minute of the day.
    ///
    /// Used by the conflict checker: two rules guarded by disjoint time
    /// windows can never fire together.
    pub fn intersects(self, other: TimeWindow) -> bool {
        for (a0, a1) in self.segments() {
            for (b0, b1) in other.segments() {
                if a0 < b1 && b0 < a1 {
                    return true;
                }
            }
        }
        false
    }

    /// Total minutes covered by the window.
    pub fn duration_minutes(self) -> u32 {
        self.segments().iter().map(|(a, b)| b - a).sum()
    }

    /// The first instant strictly after `t` at which
    /// [`contains`](Self::contains) of the clock's time of day can change
    /// its answer, or `None` for an all-day window, which never changes.
    ///
    /// Time of day has minute resolution, so the answer is constant within
    /// each minute and can flip only at the first millisecond of the
    /// minute `start` or `end`, on any day.
    pub fn next_change_after(self, t: SimTime) -> Option<SimTime> {
        if self.is_all_day() {
            return None;
        }
        let day_start = t.millis - t.millis % DAY_MILLIS;
        [self.start, self.end]
            .into_iter()
            .map(|boundary| {
                let at = day_start + boundary.minutes() as u64 * MINUTE_MILLIS;
                if at > t.millis {
                    at
                } else {
                    at + DAY_MILLIS
                }
            })
            .min()
            .map(SimTime::from_millis)
    }
}

impl Default for TimeWindow {
    fn default() -> Self {
        TimeWindow::ALL_DAY
    }
}

impl fmt::Display for TimeWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}–{}", self.start, self.end)
    }
}

/// A point on the simulated timeline: milliseconds since the simulation
/// epoch (midnight of day zero).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime {
    millis: u64,
}

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const EPOCH: SimTime = SimTime { millis: 0 };

    /// Creates a time from raw milliseconds since the epoch.
    pub const fn from_millis(millis: u64) -> SimTime {
        SimTime { millis }
    }

    /// Milliseconds since the epoch.
    pub const fn as_millis(self) -> u64 {
        self.millis
    }

    /// Whole days elapsed since the epoch.
    pub fn day_index(self) -> u64 {
        self.millis / DAY_MILLIS
    }

    /// Midnight at the start of the day `days` after this instant's day:
    /// `0` is today's midnight, `1` the next one, where the weekday and
    /// the date change.
    pub fn midnight_after_days(self, days: u64) -> SimTime {
        SimTime::from_millis((self.day_index() + days) * DAY_MILLIS)
    }

    /// The wall-clock time of day at this instant.
    pub fn time_of_day(self) -> TimeOfDay {
        let minutes = (self.millis / MINUTE_MILLIS) % DAY_MINUTES as u64;
        TimeOfDay::from_minutes(minutes as u32)
    }

    /// Time elapsed since `earlier`, saturating to zero if `earlier` is in
    /// the future.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration::from_millis(self.millis.saturating_sub(earlier.millis))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime::from_millis(self.millis + d.as_millis())
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.millis += d.as_millis();
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, other: SimTime) -> SimDuration {
        self.since(other)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}+{}", self.day_index(), self.time_of_day())
    }
}

/// A span of simulated time with millisecond resolution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration {
    millis: u64,
}

impl SimDuration {
    /// A zero-length duration.
    pub const ZERO: SimDuration = SimDuration { millis: 0 };

    /// Creates a duration from milliseconds.
    pub const fn from_millis(millis: u64) -> SimDuration {
        SimDuration { millis }
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> SimDuration {
        SimDuration {
            millis: secs * 1000,
        }
    }

    /// Creates a duration from whole minutes.
    pub const fn from_minutes(minutes: u64) -> SimDuration {
        SimDuration {
            millis: minutes * 60_000,
        }
    }

    /// Creates a duration from whole hours.
    pub const fn from_hours(hours: u64) -> SimDuration {
        SimDuration {
            millis: hours * 3_600_000,
        }
    }

    /// The duration in milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.millis
    }

    /// The duration in whole seconds (truncating).
    pub const fn as_secs(self) -> u64 {
        self.millis / 1000
    }

    /// The duration in whole minutes (truncating).
    pub const fn as_minutes(self) -> u64 {
        self.millis / 60_000
    }

    /// Whether this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.millis == 0
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration::from_millis(self.millis + other.millis)
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, other: SimDuration) -> SimDuration {
        SimDuration::from_millis(self.millis.saturating_sub(other.millis))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.millis.is_multiple_of(60_000) {
            write!(f, "{}min", self.as_minutes())
        } else if self.millis.is_multiple_of(1000) {
            write!(f, "{}s", self.as_secs())
        } else {
            write!(f, "{}ms", self.millis)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_of_day_construction() {
        assert_eq!(TimeOfDay::hm(18, 30).unwrap().minutes(), 18 * 60 + 30);
        assert!(TimeOfDay::hm(24, 0).is_none());
        assert!(TimeOfDay::hm(10, 60).is_none());
    }

    #[test]
    fn time_of_day_parsing() {
        assert_eq!(
            "18:30".parse::<TimeOfDay>().unwrap(),
            TimeOfDay::hm(18, 30).unwrap()
        );
        assert_eq!(
            "6 pm".parse::<TimeOfDay>().unwrap(),
            TimeOfDay::hm(18, 0).unwrap()
        );
        assert_eq!(
            "6:15 am".parse::<TimeOfDay>().unwrap(),
            TimeOfDay::hm(6, 15).unwrap()
        );
        assert_eq!("12 am".parse::<TimeOfDay>().unwrap(), TimeOfDay::MIDNIGHT);
        assert_eq!("12 pm".parse::<TimeOfDay>().unwrap(), TimeOfDay::NOON);
        assert_eq!("noon".parse::<TimeOfDay>().unwrap(), TimeOfDay::NOON);
        assert_eq!(
            "midnight".parse::<TimeOfDay>().unwrap(),
            TimeOfDay::MIDNIGHT
        );
        assert!("25:00".parse::<TimeOfDay>().is_err());
        assert!("13 pm".parse::<TimeOfDay>().is_err());
        assert!("0 pm".parse::<TimeOfDay>().is_err());
        assert!("snack".parse::<TimeOfDay>().is_err());
    }

    #[test]
    fn weekday_arithmetic() {
        assert_eq!(Weekday::Friday.advance(3), Weekday::Monday);
        assert_eq!(Weekday::Monday.advance(0), Weekday::Monday);
        assert_eq!(Weekday::Sunday.advance(7), Weekday::Sunday);
    }

    #[test]
    fn date_validation() {
        assert!(Date::new(2005, 2, 29).is_none());
        assert!(Date::new(2004, 2, 29).is_some()); // leap year
        assert!(Date::new(2005, 13, 1).is_none());
        assert!(Date::new(2005, 4, 31).is_none());
    }

    #[test]
    fn date_weekday_known_values() {
        // ICDCS 2005 ran June 6-10 2005; June 6 2005 was a Monday.
        assert_eq!(Date::new(2005, 6, 6).unwrap().weekday(), Weekday::Monday);
        assert_eq!(Date::new(2000, 1, 1).unwrap().weekday(), Weekday::Saturday);
        assert_eq!(Date::new(2026, 7, 7).unwrap().weekday(), Weekday::Tuesday);
    }

    #[test]
    fn date_advance_crosses_months_and_years() {
        let d = Date::new(2005, 12, 30).unwrap();
        assert_eq!(d.advance(3), Date::new(2006, 1, 2).unwrap());
        let d = Date::new(2004, 2, 28).unwrap();
        assert_eq!(d.advance(1), Date::new(2004, 2, 29).unwrap());
        assert_eq!(d.advance(2), Date::new(2004, 3, 1).unwrap());
    }

    #[test]
    fn date_parse() {
        assert_eq!(
            "2005-06-06".parse::<Date>().unwrap(),
            Date::new(2005, 6, 6).unwrap()
        );
        assert!("2005-13-06".parse::<Date>().is_err());
        assert!("yesterday".parse::<Date>().is_err());
    }

    #[test]
    fn window_contains_non_wrapping() {
        let w = TimeWindow::new(TimeOfDay::hm(17, 0).unwrap(), TimeOfDay::hm(22, 0).unwrap());
        assert!(w.contains(TimeOfDay::hm(17, 0).unwrap()));
        assert!(w.contains(TimeOfDay::hm(21, 59).unwrap()));
        assert!(!w.contains(TimeOfDay::hm(22, 0).unwrap()));
        assert!(!w.contains(TimeOfDay::hm(3, 0).unwrap()));
    }

    #[test]
    fn window_contains_wrapping() {
        let night = DayPart::Night.window();
        assert!(night.wraps());
        assert!(night.contains(TimeOfDay::hm(23, 0).unwrap()));
        assert!(night.contains(TimeOfDay::hm(2, 0).unwrap()));
        assert!(!night.contains(TimeOfDay::hm(6, 0).unwrap()));
        assert!(!night.contains(TimeOfDay::NOON));
    }

    #[test]
    fn all_day_window() {
        assert!(TimeWindow::ALL_DAY.contains(TimeOfDay::hm(13, 37).unwrap()));
        assert_eq!(TimeWindow::ALL_DAY.duration_minutes(), 1440);
    }

    #[test]
    fn window_intersection() {
        let evening = DayPart::Evening.window();
        let night = DayPart::Night.window();
        let morning = DayPart::Morning.window();
        assert!(!evening.intersects(night)); // [17,22) vs [22,6)
        assert!(!night.intersects(morning)); // [22,6) vs [6,12)
        let late = TimeWindow::new(TimeOfDay::hm(21, 0).unwrap(), TimeOfDay::hm(23, 0).unwrap());
        assert!(evening.intersects(late));
        assert!(night.intersects(late));
        assert!(TimeWindow::ALL_DAY.intersects(night));
    }

    #[test]
    fn daypart_windows_cover_the_day() {
        let total: u32 = [
            DayPart::Morning,
            DayPart::Afternoon,
            DayPart::Evening,
            DayPart::Night,
        ]
        .iter()
        .map(|p| p.window().duration_minutes())
        .sum();
        assert_eq!(total, 1440);
    }

    #[test]
    fn sim_time_decomposition() {
        let t = SimTime::EPOCH + SimDuration::from_hours(26) + SimDuration::from_minutes(30);
        assert_eq!(t.day_index(), 1);
        assert_eq!(t.time_of_day(), TimeOfDay::hm(2, 30).unwrap());
    }

    #[test]
    fn sim_duration_display() {
        assert_eq!(SimDuration::from_minutes(90).to_string(), "90min");
        assert_eq!(SimDuration::from_secs(30).to_string(), "30s");
        assert_eq!(SimDuration::from_millis(250).to_string(), "250ms");
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_millis(1000);
        let b = SimTime::from_millis(5000);
        assert_eq!(a.since(b), SimDuration::ZERO);
        assert_eq!(b.since(a), SimDuration::from_secs(4));
    }

    #[test]
    fn one_minute_windows_intersect_exactly_when_contained() {
        let mut rng = crate::Rng::new(0x7115);
        for _ in 0..1024 {
            let (s1, e1, t) = (rng.below(1440), rng.below(1440), rng.below(1440));
            let w = TimeWindow::new(
                TimeOfDay::from_minutes(s1 as u32),
                TimeOfDay::from_minutes(e1 as u32),
            );
            let point = TimeWindow::new(
                TimeOfDay::from_minutes(t as u32),
                TimeOfDay::from_minutes(((t + 1) % 1440) as u32),
            );
            // A 1-minute window intersects w iff its minute is contained.
            if !point.is_all_day() {
                assert_eq!(
                    w.intersects(point),
                    w.contains(TimeOfDay::from_minutes(t as u32)),
                    "{w:?} at minute {t}"
                );
            }
        }
    }

    #[test]
    fn window_intersection_is_symmetric() {
        let mut rng = crate::Rng::new(0x5133);
        let mut window = || {
            TimeWindow::new(
                TimeOfDay::from_minutes(rng.below(1440) as u32),
                TimeOfDay::from_minutes(rng.below(1440) as u32),
            )
        };
        for _ in 0..1024 {
            let (a, b) = (window(), window());
            assert_eq!(a.intersects(b), b.intersects(a), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn date_advance_skips_whole_cycles_exactly() {
        // The month-by-month walk `advance` shortens for large jumps.
        fn walk(mut d: Date, mut days: u64) -> Date {
            while days > 0 {
                let left = (days_in_month(d.year, d.month) - d.day) as u64;
                if days <= left {
                    d.day += days as u8;
                    return d;
                }
                days -= left + 1;
                d.day = 1;
                (d.year, d.month) = if d.month == 12 {
                    (d.year + 1, 1)
                } else {
                    (d.year, d.month + 1)
                };
            }
            d
        }
        let mut rng = crate::Rng::new(0x400);
        for case in 0..64 {
            let base = if case == 0 {
                Date::new(2000, 2, 29).unwrap()
            } else {
                let year = rng.range_i64(1900, 2400) as i32;
                Date::new(year, 1 + rng.below(12) as u8, 1 + rng.below(28) as u8).unwrap()
            };
            let days = rng.below(3 * DAYS_PER_400_YEARS);
            assert_eq!(base.advance(days), walk(base, days), "{base} + {days}");
        }
        let base = Date::new(2005, 6, 6).unwrap();
        assert_eq!(
            base.advance(1_000 * DAYS_PER_400_YEARS),
            Date::new(402_005, 6, 6).unwrap()
        );
        // The farthest day a `SimTime` can name is still a date.
        let last = SimTime::from_millis(u64::MAX);
        assert_eq!(
            base.advance(last.day_index()).weekday(),
            Weekday::Monday.advance(last.day_index())
        );
    }

    #[test]
    fn weekday_and_date_advance_stay_consistent() {
        let mut rng = crate::Rng::new(0xDA7E);
        let base = Date::new(2005, 6, 6).unwrap(); // a Monday
        for _ in 0..512 {
            let w = Weekday::ALL[rng.below(7) as usize];
            let days = rng.below(100);
            assert_eq!(w.advance(days).advance(7 - (days % 7)), w, "{w} + {days}");
            let days = rng.below(400);
            assert_eq!(
                base.advance(days).weekday(),
                Weekday::Monday.advance(days),
                "{base} + {days}"
            );
        }
    }

    #[test]
    fn next_change_lands_on_the_nearest_boundary() {
        let at = |d: u64, h: u64, m: u64, ms: u64| {
            SimTime::from_millis(((d * 24 + h) * 60 + m) * 60_000 + ms)
        };
        let hm = |h, m| TimeOfDay::hm(h, m).unwrap();
        let evening = TimeWindow::new(hm(18, 0), hm(23, 0));
        assert_eq!(
            evening.next_change_after(at(0, 9, 0, 0)),
            Some(at(0, 18, 0, 0))
        );
        // Exactly on a boundary: the next change is the other one.
        assert_eq!(
            evening.next_change_after(at(0, 18, 0, 0)),
            Some(at(0, 23, 0, 0))
        );
        assert_eq!(
            evening.next_change_after(at(0, 17, 59, 59_999)),
            Some(at(0, 18, 0, 0))
        );
        assert_eq!(
            evening.next_change_after(at(0, 23, 0, 1)),
            Some(at(1, 18, 0, 0))
        );
        // Wrapping midnight.
        let night = TimeWindow::new(hm(22, 0), hm(6, 0));
        assert_eq!(
            night.next_change_after(at(2, 23, 0, 0)),
            Some(at(3, 6, 0, 0))
        );
        assert_eq!(
            night.next_change_after(at(3, 6, 0, 0)),
            Some(at(3, 22, 0, 0))
        );
        // All day never changes.
        assert_eq!(TimeWindow::ALL_DAY.next_change_after(at(0, 1, 0, 0)), None);
        assert_eq!(at(2, 13, 5, 7).midnight_after_days(1), at(3, 0, 0, 0));
        assert_eq!(at(2, 13, 5, 7).midnight_after_days(0), at(2, 0, 0, 0));
    }

    #[test]
    fn window_truth_is_constant_until_the_next_change() {
        let mut rng = crate::Rng::new(0xB0DE);
        for _ in 0..256 {
            let w = TimeWindow::new(
                TimeOfDay::from_minutes(rng.below(1440) as u32),
                TimeOfDay::from_minutes(rng.below(1440) as u32),
            );
            let t = SimTime::from_millis(rng.below(3 * DAY_MILLIS));
            let truth = |t: SimTime| w.contains(t.time_of_day());
            match w.next_change_after(t) {
                None => assert!(w.is_all_day()),
                Some(next) => {
                    assert!(next > t);
                    // Constant on [t, next), checked minute by minute.
                    let mut probe = t;
                    while probe < next {
                        assert_eq!(truth(probe), truth(t), "{w:?} at {probe}");
                        probe = SimTime::from_millis(
                            (probe.as_millis() / MINUTE_MILLIS + 1) * MINUTE_MILLIS,
                        );
                    }
                    // A non-empty, non-full window flips at every boundary.
                    assert_ne!(truth(next), truth(t), "{w:?} at {next}");
                }
            }
        }
    }
}
